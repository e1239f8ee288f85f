// aio_overlap reproduces the paper's headline comparison (Figs. 7/8) for
// a single write size, end to end on the public API: how much of a tmpfs
// open-write-close can be hidden behind computation,
//
//   - with Linux-style AIO (a helper thread runs only the write; open and
//     close stay synchronous), vs
//   - with ULP-PiP (the whole system-call series migrates to a dedicated
//     syscall core via couple()/decouple(), while another ULP computes).
//
// The overlap ratio uses the Intel MPI Benchmarks formula the paper
// cites.
package main

import (
	"errors"
	"fmt"
	"log"

	ulppip "repro"
)

const writeSize = 16 * 1024

func main() {
	for _, machine := range []*ulppip.Machine{ulppip.Wallaby(), ulppip.Albireo()} {
		fmt.Printf("=== %s (%s), %d-byte writes ===\n", machine.Name, machine.Arch, writeSize)
		tPure := measurePure(machine)
		tAIO := measureAIO(machine, tPure)
		tULP := measureULP(machine, tPure)
		fmt.Printf("  pure open-write-close: %v\n", tPure)
		fmt.Printf("  AIO overlapped run:    %v  -> overlap %5.1f%%\n", tAIO, overlap(tPure, tPure, tAIO))
		fmt.Printf("  ULP overlapped run:    %v  -> overlap %5.1f%%\n", tULP, overlap(tPure, tPure, tULP))
	}
}

// measurePure times one synchronous open-write-close (t_pure).
func measurePure(m *ulppip.Machine) ulppip.Duration {
	var d ulppip.Duration
	s := ulppip.NewSim(m)
	task := s.Kernel.NewTask("main", s.Kernel.NewAddressSpace(), func(t *ulppip.Task) int {
		buf := make([]byte, writeSize)
		owc(t, buf) // warm-up
		start := s.Now()
		owc(t, buf)
		d = s.Now().Sub(start)
		return 0
	})
	s.Kernel.Start(task, 0)
	if err := s.Run(); err != nil {
		log.Fatal(err)
	}
	return d
}

func owc(t *ulppip.Task, buf []byte) {
	fd, err := t.Open("/data", ulppip.OCreate|ulppip.OWrOnly|ulppip.OTrunc)
	if err != nil {
		log.Fatal(err)
	}
	t.Write(fd, buf, false)
	t.Close(fd)
}

// measureAIO times open + aio_write + compute + aio_return-poll + close.
func measureAIO(m *ulppip.Machine, tCPU ulppip.Duration) ulppip.Duration {
	var d ulppip.Duration
	s := ulppip.NewSim(m)
	task := s.Kernel.NewTask("main", s.Kernel.NewAddressSpace(), func(t *ulppip.Task) int {
		buf := make([]byte, writeSize)
		ctx, err := ulppip.NewAIO(t)
		if err != nil {
			log.Fatal(err)
		}
		run := func() {
			fd, _ := t.Open("/data", ulppip.OCreate|ulppip.OWrOnly|ulppip.OTrunc)
			r, err := ctx.WriteAsync(t, fd, buf)
			if err != nil {
				log.Fatal(err)
			}
			t.Compute(tCPU)
			for {
				if _, err := r.Return(t); !errors.Is(err, ulppip.AIOInProgress) {
					break
				}
				t.SchedYield()
			}
			t.Close(fd)
		}
		run() // warm-up (creates the helper thread)
		start := s.Now()
		run()
		d = s.Now().Sub(start)
		ctx.Close(t)
		return 0
	})
	s.Kernel.Start(task, 0)
	if err := s.Run(); err != nil {
		log.Fatal(err)
	}
	return d
}

// measureULP times the two-ULP overlapped run: one ULP brackets the
// open-write-close (running it on the dedicated syscall core), the other
// computes on the shared program core.
func measureULP(m *ulppip.Machine, tCPU ulppip.Duration) ulppip.Duration {
	var d ulppip.Duration
	s := ulppip.NewSim(m)
	ready := 0
	started := func(*ulppip.Task) bool { return ready >= 2 }
	var phase [2]int
	barrier := func(env *ulppip.Env, self, iter int) {
		phase[self] = iter + 1
		env.YieldUntil(func(*ulppip.Task) bool { return phase[1-self] >= iter+1 })
	}
	const iters = 2 // warm-up + measured
	var t0, t1 ulppip.Time
	ioProg := &ulppip.Image{
		Name: "io", PIE: true, TextSize: 4096,
		Symbols: []ulppip.Symbol{{Name: "x", Size: 8}},
		Main: func(envI interface{}) int {
			env := envI.(*ulppip.Env)
			env.Decouple()
			ready++
			env.YieldUntil(started)
			buf := make([]byte, writeSize)
			for i := 0; i < iters; i++ {
				if i == iters-1 {
					t0 = s.Now()
				}
				env.Exec(func(kc *ulppip.Task) {
					fd, _ := kc.Open("/data", ulppip.OCreate|ulppip.OWrOnly|ulppip.OTrunc)
					kc.Write(fd, buf, true)
					kc.Close(fd)
				})
				barrier(env, 0, i)
			}
			t1 = s.Now()
			env.Couple()
			return 0
		},
	}
	cpuProg := &ulppip.Image{
		Name: "cpu", PIE: true, TextSize: 4096,
		Symbols: []ulppip.Symbol{{Name: "x", Size: 8}},
		Main: func(envI interface{}) int {
			env := envI.(*ulppip.Env)
			env.Decouple()
			ready++
			env.YieldUntil(started)
			for i := 0; i < iters; i++ {
				env.Compute(tCPU)
				barrier(env, 1, i)
			}
			env.Couple()
			return 0
		},
	}
	if _, err := ulppip.Boot(s.Kernel, ulppip.Config{
		ProgCores:    []int{0}, // both ULPs share ONE program core
		SyscallCores: []int{2, 3},
		Idle:         ulppip.IdleBusyWait,
	}, func(rt *ulppip.Runtime) int {
		rt.Spawn(ioProg, ulppip.ULPSpawnOpts{Scheduler: 0})
		rt.Spawn(cpuProg, ulppip.ULPSpawnOpts{Scheduler: 0})
		rt.WaitAll()
		rt.Shutdown()
		return 0
	}); err != nil {
		log.Fatal(err)
	}
	if err := s.Run(); err != nil {
		log.Fatal(err)
	}
	d = t1.Sub(t0)
	return d
}

// overlap is the IMB formula.
func overlap(tPure, tCPU, tOvrl ulppip.Duration) float64 {
	den := tPure
	if tCPU < den {
		den = tCPU
	}
	ratio := float64(tPure+tCPU-tOvrl) / float64(den)
	if ratio < 0 {
		ratio = 0
	}
	if ratio > 1 {
		ratio = 1
	}
	return 100 * ratio
}
