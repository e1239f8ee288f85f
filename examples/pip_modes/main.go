// pip_modes demonstrates the plain Process-in-Process layer (paper §IV)
// under both of its execution modes, without any BLT/ULP machinery:
//
//   - process mode (clone): each PiP task has its own PID and fd table,
//     and the root reaps it with wait(2);
//   - thread mode (pthread_create): PiP tasks share the root's PID, for
//     systems without clone() — yet variable privatization still holds.
//
// A futex-based barrier in the shared address space synchronizes all
// ranks, MPI-style.
package main

import (
	"fmt"
	"log"

	ulppip "repro"
)

const ranks = 4

func main() {
	for _, mode := range []struct {
		name string
		m    interface{ String() string }
	}{
		{"process", ulppip.PiPProcessMode},
		{"thread", ulppip.PiPThreadMode},
	} {
		fmt.Printf("=== PiP %s mode ===\n", mode.name)
		runMode(mode.name == "process")
	}
}

func runMode(processMode bool) {
	s := ulppip.NewSim(ulppip.Albireo())

	var bar *ulppip.PiPBarrier
	pids := make([]int, ranks)
	addrs := make([]uint64, ranks)

	rank := &ulppip.Image{
		Name: "rank", PIE: true, TextSize: 4096,
		Symbols: []ulppip.Symbol{
			{Name: "rank_data", Size: 64},
			{Name: "errno", Size: 8, TLS: true},
		},
		Main: func(envI interface{}) int {
			env := envI.(*ulppip.PiPEnv)
			r := env.Rank
			pids[r] = env.Task().Getpid()
			addr, err := env.SymbolAddr("rank_data")
			if err != nil {
				return 1
			}
			addrs[r] = addr
			// Everyone writes its rank into its own privatized copy.
			if err := env.Task().MemWrite(addr, []byte{byte(r + 10)}); err != nil {
				return 2
			}
			if err := bar.Wait(env.Task()); err != nil {
				return 3
			}
			// After the barrier, rank 0 reads every rank's instance
			// directly — shared address space, no IPC.
			if r == 0 {
				for peer := 0; peer < ranks; peer++ {
					b := make([]byte, 1)
					env.Task().MemRead(addrs[peer], b)
					fmt.Printf("  rank0 reads rank%d's rank_data=%d at %#x\n",
						peer, b[0], addrs[peer])
				}
			}
			return 0
		},
	}

	ulppip.PiPLaunch(s.Kernel, "pip-root", func(root *ulppip.PiPRoot) int {
		var err error
		bar, err = ulppip.NewPiPBarrier(root.Task(), ranks)
		if err != nil {
			log.Fatal(err)
		}
		mode := ulppip.PiPProcessMode
		if !processMode {
			mode = ulppip.PiPThreadMode
		}
		procs := make([]*ulppip.PiPProcess, ranks)
		for i := 0; i < ranks; i++ {
			p, err := root.Spawn(rank, mode, nil)
			if err != nil {
				log.Fatal(err)
			}
			procs[i] = p
		}
		if processMode {
			for i := 0; i < ranks; i++ {
				if _, status, err := root.WaitAny(); err != nil || status != 0 {
					log.Fatalf("wait: status=%d err=%v", status, err)
				}
			}
		} else {
			for _, p := range procs {
				if status, err := p.Join(); err != nil || status != 0 {
					log.Fatalf("join: status=%d err=%v", status, err)
				}
			}
		}
		return 0
	})
	if err := s.Run(); err != nil {
		log.Fatal(err)
	}

	distinct := map[int]bool{}
	for _, pid := range pids {
		distinct[pid] = true
	}
	fmt.Printf("  rank PIDs: %v (%d distinct)\n", pids, len(distinct))
}
