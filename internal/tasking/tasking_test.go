package tasking

import (
	"fmt"
	"testing"

	"repro/internal/arch"
	"repro/internal/blt"
	"repro/internal/fs"
	"repro/internal/kernel"
	"repro/internal/sim"
)

func testCfg(workers int) Config {
	return Config{
		ProgCores:    []int{0, 1},
		SyscallCores: []int{2, 3},
		Idle:         blt.BusyWait,
		Workers:      workers,
	}
}

// withRuntime runs body with a live tasking runtime inside a root task.
func withRuntime(t *testing.T, workers int, body func(root *kernel.Task, rt *Runtime)) {
	t.Helper()
	e := sim.New()
	k := kernel.New(e, arch.Wallaby())
	root := k.NewTask("root", k.NewAddressSpace(), func(task *kernel.Task) int {
		rt, err := New(task, testCfg(workers))
		if err != nil {
			t.Error(err)
			return 1
		}
		body(task, rt)
		rt.Shutdown(task)
		return 0
	})
	k.Start(root, 0)
	if err := e.Run(); err != nil {
		t.Fatalf("engine: %v", err)
	}
}

func TestRunSingleTask(t *testing.T) {
	withRuntime(t, 4, func(root *kernel.Task, rt *Runtime) {
		ran := false
		if err := rt.Run(root, func(tc *TaskCtx) {
			tc.Compute(time1us)
			ran = true
		}); err != nil {
			t.Fatal(err)
		}
		if !ran {
			t.Error("task did not run")
		}
		if rt.Executed() != 1 {
			t.Errorf("executed = %d", rt.Executed())
		}
	})
}

const time1us = sim.Microsecond

func TestNestedGroupsNoDeadlock(t *testing.T) {
	// Nested fork-join: each outer task spawns an inner group and waits
	// on it — the oversubscription scenario BOLT addresses.
	withRuntime(t, 3, func(root *kernel.Task, rt *Runtime) {
		leaves := 0
		rt.Run(root, func(tc *TaskCtx) {
			outer := tc.NewGroup()
			for i := 0; i < 5; i++ {
				outer.Spawn(tc, func(sub *TaskCtx) {
					inner := sub.NewGroup()
					for j := 0; j < 4; j++ {
						inner.Spawn(sub, func(leaf *TaskCtx) {
							leaf.Compute(500 * sim.Nanosecond)
							leaves++
						})
					}
					inner.WaitCtx(sub)
				})
			}
			outer.WaitCtx(tc)
		})
		if leaves != 20 {
			t.Errorf("leaves = %d, want 20", leaves)
		}
	})
}

func TestParallelForActuallyParallel(t *testing.T) {
	// With 2 program cores and pure compute chunks, a parallel for (one
	// group task per chunk, joined) must take noticeably less wall-clock
	// (virtual) time than serial.
	measure := func(chunks int) sim.Duration {
		var d sim.Duration
		withRuntime(t, 4, func(root *kernel.Task, rt *Runtime) {
			e := root.Kernel().Engine()
			start := e.Now()
			rt.Run(root, func(tc *TaskCtx) {
				g := tc.NewGroup()
				for c := 0; c < chunks; c++ {
					g.Spawn(tc, func(sub *TaskCtx) {
						for i := 0; i < 8/chunks; i++ {
							sub.Compute(50 * sim.Microsecond)
						}
					})
				}
				g.WaitCtx(tc)
			})
			d = e.Now().Sub(start)
		})
		return d
	}
	serial := measure(1)
	parallel := measure(8)
	if float64(parallel)*1.5 > float64(serial) {
		t.Errorf("parallel (%v) not much faster than serial (%v)", parallel, serial)
	}
}

func TestTaskExecConsistency(t *testing.T) {
	// A task doing file I/O brackets it with Exec: the fd table must be
	// the worker KC's own, across many tasks on many workers.
	withRuntime(t, 4, func(root *kernel.Task, rt *Runtime) {
		errs := 0
		rt.Run(root, func(tc *TaskCtx) {
			g := tc.NewGroup()
			for i := 0; i < 8; i++ {
				i := i
				g.Spawn(tc, func(sub *TaskCtx) {
					sub.Exec(func(kc *kernel.Task) {
						fd, err := kc.Open(fmt.Sprintf("/t%d", i), fs.OCreate|fs.OWrOnly)
						if err != nil {
							errs++
							return
						}
						if _, err := kc.Write(fd, []byte("x"), false); err != nil {
							errs++
						}
						if err := kc.Close(fd); err != nil {
							errs++
						}
					})
				})
			}
			g.WaitCtx(tc)
		})
		if errs != 0 {
			t.Errorf("%d I/O errors under task parallelism", errs)
		}
	})
}

func TestOversubscribedWorkers(t *testing.T) {
	// 10 workers on 2 cores: creation must succeed and all tasks run.
	withRuntime(t, 10, func(root *kernel.Task, rt *Runtime) {
		count := 0
		rt.Run(root, func(tc *TaskCtx) {
			g := tc.NewGroup()
			for i := 0; i < 30; i++ {
				g.Spawn(tc, func(sub *TaskCtx) {
					sub.Compute(sim.Microsecond)
					count++
				})
			}
			g.WaitCtx(tc)
		})
		if count != 30 {
			t.Errorf("count = %d", count)
		}
		if rt.Workers() != 10 {
			t.Errorf("workers = %d", rt.Workers())
		}
	})
}

func TestSubmitAfterShutdown(t *testing.T) {
	e := sim.New()
	k := kernel.New(e, arch.Wallaby())
	root := k.NewTask("root", k.NewAddressSpace(), func(task *kernel.Task) int {
		rt, err := New(task, testCfg(2))
		if err != nil {
			t.Error(err)
			return 1
		}
		rt.Shutdown(task)
		if err := rt.Run(task, func(tc *TaskCtx) {}); err != ErrStopped {
			t.Errorf("err = %v, want ErrStopped", err)
		}
		return 0
	})
	k.Start(root, 0)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}
