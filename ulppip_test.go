package ulppip_test

// Integration tests that exercise the public facade exactly as a
// downstream user would, spanning the full stack: ULP-PiP, plain PiP,
// BLT pools, MPI ranks, tasking, and AIO — all through the re-exported
// API only.

import (
	"errors"
	"fmt"
	"testing"

	ulppip "repro"
)

func ulpProg(name string, main ulppip.MainFunc) *ulppip.Image {
	return &ulppip.Image{
		Name: name, PIE: true, TextSize: 4096,
		Symbols: []ulppip.Symbol{
			{Name: "state", Size: 64},
			{Name: "errno", Size: 8, TLS: true},
		},
		Main: main,
	}
}

func stdConfig() ulppip.Config {
	return ulppip.Config{
		ProgCores:    []int{0, 1},
		SyscallCores: []int{2, 3},
		Idle:         ulppip.IdleBusyWait,
		Audit:        true,
	}
}

func TestFacadeULPLifecycle(t *testing.T) {
	s := ulppip.NewSim(ulppip.Wallaby())
	consistent := true
	prog := ulpProg("p", func(envI interface{}) int {
		env := envI.(*ulppip.Env)
		env.Decouple()
		if env.Getpid() != env.KC().TGID() {
			consistent = false
		}
		env.Couple()
		return env.Rank
	})
	ulppip.Boot(s.Kernel, stdConfig(), func(rt *ulppip.Runtime) int {
		for i := 0; i < 4; i++ {
			if _, err := rt.Spawn(prog, ulppip.ULPSpawnOpts{Scheduler: -1}); err != nil {
				t.Error(err)
				return 1
			}
		}
		statuses, err := rt.WaitAll()
		if err != nil {
			t.Error(err)
		}
		for i, st := range statuses {
			if st != i {
				t.Errorf("status[%d] = %d", i, st)
			}
		}
		if n := len(rt.Violations()); n != 0 {
			t.Errorf("%d violations", n)
		}
		rt.Shutdown()
		return 0
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !consistent {
		t.Error("getpid inconsistent through facade")
	}
}

func TestFacadeMPI(t *testing.T) {
	s := ulppip.NewSim(ulppip.Albireo())
	_, statuses, err := ulppip.MPIRun(s.Kernel, ulppip.MPIConfig{
		ProgCores:    []int{0, 1},
		SyscallCores: []int{2, 3},
		Idle:         ulppip.IdleBlocking,
	}, 4, func(r *ulppip.MPIRank) int {
		sum, err := r.Allreduce(ulppip.MPISum, []float64{float64(r.Rank())})
		if err != nil || sum[0] != 6 {
			return 1
		}
		return 0
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range statuses {
		if st != 0 {
			t.Errorf("rank %d status %d", i, st)
		}
	}
}

func TestFacadeTasking(t *testing.T) {
	s := ulppip.NewSim(ulppip.Wallaby())
	total := 0
	root := s.Kernel.NewTask("main", s.Kernel.NewAddressSpace(), func(task *ulppip.Task) int {
		rt, err := ulppip.NewTaskRuntime(task, ulppip.TaskConfig{
			ProgCores:    []int{0, 1},
			SyscallCores: []int{2, 3},
			Idle:         ulppip.IdleBusyWait,
			Workers:      4,
		})
		if err != nil {
			t.Error(err)
			return 1
		}
		rt.Run(task, func(tc *ulppip.TaskCtx) {
			g := tc.NewGroup()
			for c := 0; c < 8; c++ {
				lo := 4 * c
				g.Spawn(tc, func(sub *ulppip.TaskCtx) {
					for i := lo; i < lo+4; i++ {
						sub.Compute(ulppip.Microsecond)
						total += i
					}
				})
			}
			g.WaitCtx(tc)
		})
		rt.Shutdown(task)
		return 0
	})
	s.Kernel.Start(root, 0)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if total != 31*32/2 {
		t.Errorf("total = %d", total)
	}
}

func TestFacadePiPAndAIO(t *testing.T) {
	s := ulppip.NewSim(ulppip.Wallaby())
	img := ulpProg("writer", func(envI interface{}) int {
		env := envI.(*ulppip.PiPEnv)
		task := env.Task()
		ctx, err := ulppip.NewAIO(task)
		if err != nil {
			return 1
		}
		fd, err := task.Open(fmt.Sprintf("/aio.%d", env.Rank), ulppip.OCreate|ulppip.OWrOnly)
		if err != nil {
			return 2
		}
		r, err := ctx.WriteAsync(task, fd, make([]byte, 4096))
		if err != nil {
			return 3
		}
		for {
			if _, err := r.Return(task); !errors.Is(err, ulppip.AIOInProgress) {
				if err != nil {
					return 4
				}
				break
			}
			task.SchedYield()
		}
		task.Close(fd)
		ctx.Close(task)
		return 0
	})
	ulppip.PiPLaunch(s.Kernel, "root", func(root *ulppip.PiPRoot) int {
		for i := 0; i < 2; i++ {
			if _, err := root.Spawn(img, ulppip.PiPProcessMode, nil); err != nil {
				t.Error(err)
				return 1
			}
		}
		for i := 0; i < 2; i++ {
			if _, st, err := root.WaitAny(); err != nil || st != 0 {
				t.Errorf("wait: st=%d err=%v", st, err)
			}
		}
		return 0
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if files := s.Kernel.FS().List(); len(files) != 2 {
		t.Errorf("files = %v", files)
	}
}

func TestFacadeBLTPoolDirect(t *testing.T) {
	s := ulppip.NewSim(ulppip.Albireo())
	root := s.Kernel.NewTask("main", s.Kernel.NewAddressSpace(), func(task *ulppip.Task) int {
		pool, err := ulppip.NewBLTPool(task, ulppip.BLTConfig{
			ProgCores:    []int{0},
			SyscallCores: []int{2},
			Idle:         ulppip.IdleBlocking,
		})
		if err != nil {
			t.Error(err)
			return 1
		}
		pids := map[int]bool{}
		b, err := pool.Spawn(func(b *ulppip.BLT) int {
			b.Decouple()
			b.Exec(func(kc *ulppip.Task) { pids[kc.Getpid()] = true })
			b.Couple()
			return 0
		}, ulppip.BLTSpawnOpts{Name: "x", Scheduler: -1})
		if err != nil {
			t.Error(err)
			return 1
		}
		task.Wait()
		if !pids[b.KC().TGID()] || len(pids) != 1 {
			t.Errorf("pids = %v, want only %d", pids, b.KC().TGID())
		}
		pool.Shutdown(task)
		return 0
	})
	s.Kernel.Start(root, 0)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeDeterminism(t *testing.T) {
	// Two identical runs of a nontrivial scenario must end at the exact
	// same virtual time — the engine's core guarantee, end to end.
	run := func() ulppip.Time {
		s := ulppip.NewSim(ulppip.Wallaby())
		prog := ulpProg("d", func(envI interface{}) int {
			env := envI.(*ulppip.Env)
			env.Decouple()
			for i := 0; i < 5; i++ {
				env.Getpid()
				env.Yield()
			}
			env.Couple()
			return 0
		})
		ulppip.Boot(s.Kernel, stdConfig(), func(rt *ulppip.Runtime) int {
			for i := 0; i < 6; i++ {
				rt.Spawn(prog, ulppip.ULPSpawnOpts{Scheduler: -1})
			}
			rt.WaitAll()
			rt.Shutdown()
			return 0
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return s.Now()
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("two identical runs ended at %v and %v", a, b)
	}
}
