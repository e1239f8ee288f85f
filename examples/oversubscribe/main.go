// oversubscribe runs the paper's Fig. 6 deployment: CPU cores split into
// a program partition (scheduler BLTs running decoupled ULPs) and a
// dedicated system-call partition (original KCs), with the BLT count set
// by the over-subscription factor O (paper Eq. 2: NB = NCprog * (O+1)).
//
// Each ULP alternates computation with a bracketed open-write-close.
// Over-subscription hides the system-call latency: while one ULP's I/O
// runs on a syscall core, the program core immediately switches (in
// ~150 ns, Table IV) to another ready ULP. The makespan per operation
// drops accordingly until the syscall cores saturate.
package main

import (
	"fmt"
	"log"

	ulppip "repro"
)

const (
	progCores = 2
	opsPerULP = 8
	computeUS = 5
)

func main() {
	m := ulppip.Wallaby()
	fmt.Printf("machine=%s  prog cores=%d  syscall cores=2  compute=%dus/op\n",
		m.Name, progCores, computeUS)
	fmt.Printf("%-4s %-6s %14s %14s\n", "O", "ULPs", "makespan[us]", "us/op")
	for _, oversub := range []int{0, 1, 2, 3, 7} {
		makespan := run(oversub)
		n := progCores * (oversub + 1)
		ops := float64(n * opsPerULP)
		fmt.Printf("%-4d %-6d %14.1f %14.2f\n",
			oversub, n, makespan.Microseconds(), makespan.Microseconds()/ops)
	}
}

func run(oversub int) ulppip.Duration {
	s := ulppip.NewSim(ulppip.Wallaby())
	numULPs := progCores * (oversub + 1)

	worker := &ulppip.Image{
		Name: "worker", PIE: true, TextSize: 4096,
		Symbols: []ulppip.Symbol{{Name: "x", Size: 8}},
		Main: func(envI interface{}) int {
			env := envI.(*ulppip.Env)
			env.Decouple() // Fig. 6: BLTs run decoupled
			buf := make([]byte, 4096)
			for i := 0; i < opsPerULP; i++ {
				env.Compute(computeUS * ulppip.Microsecond)
				env.Exec(func(kc *ulppip.Task) {
					fd, err := kc.Open(fmt.Sprintf("/out%d", env.Rank),
						ulppip.OCreate|ulppip.OWrOnly|ulppip.OTrunc)
					if err != nil {
						panic(err)
					}
					kc.Write(fd, buf, true)
					kc.Close(fd)
				})
				env.Yield() // let peers use the program core
			}
			return 0
		},
	}

	var makespan ulppip.Duration
	if _, err := ulppip.Boot(s.Kernel, ulppip.Config{
		ProgCores:    []int{0, 1},
		SyscallCores: []int{2, 3},
		Idle:         ulppip.IdleBlocking,
	}, func(rt *ulppip.Runtime) int {
		start := s.Now()
		for i := 0; i < numULPs; i++ {
			if _, err := rt.Spawn(worker, ulppip.ULPSpawnOpts{Scheduler: -1}); err != nil {
				log.Fatal(err)
			}
		}
		if _, err := rt.WaitAll(); err != nil {
			log.Fatal(err)
		}
		makespan = s.Now().Sub(start)
		rt.Shutdown()
		return 0
	}); err != nil {
		log.Fatal(err)
	}
	if err := s.Run(); err != nil {
		log.Fatal(err)
	}
	return makespan
}
