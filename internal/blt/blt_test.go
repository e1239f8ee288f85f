package blt

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/uctx"
)

// testConfig: 2 program cores, 2 syscall cores.
func testConfig(idle IdlePolicy) Config {
	return Config{
		ProgCores:    []int{0, 1},
		SyscallCores: []int{2, 3},
		Idle:         idle,
		SwitchTLS:    true,
	}
}

// runPool runs body as a "root" task that owns a pool, then drives the
// engine to completion. body must leave all BLTs terminated and reaped.
func runPool(t *testing.T, m *arch.Machine, cfg Config, body func(root *kernel.Task, p *Pool)) {
	t.Helper()
	e := sim.New()
	k := kernel.New(e, m)
	root := k.NewTask("root", k.NewAddressSpace(), func(task *kernel.Task) int {
		pool, err := NewPool(task, cfg)
		if err != nil {
			t.Errorf("NewPool: %v", err)
			return 1
		}
		body(task, pool)
		pool.Shutdown(task)
		return 0
	})
	k.Start(root, 0)
	if err := e.Run(); err != nil {
		t.Fatalf("engine: %v", err)
	}
}

// reap waits for n process-mode BLT KCs to exit.
func reap(t *testing.T, root *kernel.Task, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, _, err := root.Wait(); err != nil {
			t.Errorf("wait %d: %v", i, err)
		}
	}
}

func TestBLTStartsAsKLTOnOwnKC(t *testing.T) {
	runPool(t, arch.Wallaby(), testConfig(BusyWait), func(root *kernel.Task, p *Pool) {
		var carrierPID, kcPID int
		b, err := p.Spawn(func(b *BLT) int {
			carrierPID = b.Carrier().Getpid()
			return 0
		}, SpawnOpts{Name: "x", Scheduler: -1})
		if err != nil {
			t.Fatal(err)
		}
		kcPID = b.KC().TGID()
		reap(t, root, 1)
		if !b.Done() {
			t.Fatal("BLT not done after reap")
		}
		if carrierPID != kcPID {
			t.Errorf("created-as-KLT carrier pid = %d, want original KC pid %d", carrierPID, kcPID)
		}
		if carrierPID == root.TGID() {
			t.Error("BLT ran with the root's pid; process-mode clone expected")
		}
	})
}

func TestDecoupleMovesUCToScheduler(t *testing.T) {
	runPool(t, arch.Wallaby(), testConfig(BusyWait), func(root *kernel.Task, p *Pool) {
		var beforePID, afterPID, backPID int
		b, _ := p.Spawn(func(b *BLT) int {
			beforePID = b.Carrier().Getpid()
			b.Decouple()
			afterPID = b.Carrier().Getpid() // scheduler's pid: INCONSISTENT on purpose
			b.Couple()
			backPID = b.Carrier().Getpid()
			return 0
		}, SpawnOpts{Name: "mover", Scheduler: 0})
		reap(t, root, 1)
		kcPID := b.KC().TGID()
		schedPID := p.Schedulers()[0].Task().TGID()
		if beforePID != kcPID {
			t.Errorf("before decouple: pid %d, want KC %d", beforePID, kcPID)
		}
		// The paper's consistency hazard, demonstrated: a decoupled UC
		// calling getpid() sees the *scheduling* KC's pid.
		if afterPID != schedPID {
			t.Errorf("decoupled getpid = %d, want scheduler pid %d", afterPID, schedPID)
		}
		if backPID != kcPID {
			t.Errorf("after couple: pid %d, want original KC %d", backPID, kcPID)
		}
	})
}

func TestExecBracketPreservesConsistency(t *testing.T) {
	for _, idle := range []IdlePolicy{BusyWait, Blocking} {
		idle := idle
		t.Run(idle.String(), func(t *testing.T) {
			runPool(t, arch.Wallaby(), testConfig(idle), func(root *kernel.Task, p *Pool) {
				var pids []int
				b, _ := p.Spawn(func(b *BLT) int {
					b.Decouple()
					for i := 0; i < 3; i++ {
						b.Exec(func(kc *kernel.Task) {
							pids = append(pids, kc.Getpid())
						})
					}
					return 0
				}, SpawnOpts{Name: "exec", Scheduler: -1})
				reap(t, root, 1)
				for i, pid := range pids {
					if pid != b.KC().TGID() {
						t.Errorf("Exec %d ran on pid %d, want %d", i, pid, b.KC().TGID())
					}
				}
				if len(pids) != 3 {
					t.Errorf("pids = %v", pids)
				}
				couples, decouples, _ := b.Stats()
				if couples != 4 || decouples != 4 {
					// 3 Exec brackets + initial decouple/terminal couple.
					t.Errorf("couples=%d decouples=%d, want 4/4", couples, decouples)
				}
			})
		})
	}
}

func TestYieldPingPong(t *testing.T) {
	runPool(t, arch.Wallaby(), testConfig(BusyWait), func(root *kernel.Task, p *Pool) {
		var order []string
		ready := 0
		mk := func(name string) Body {
			return func(b *BLT) int {
				b.Decouple()
				// Rendezvous: spawning is serialized by clone costs, so
				// wait until both ULPs are decoupled before recording.
				ready++
				for ready < 2 {
					b.Yield()
				}
				for i := 0; i < 3; i++ {
					order = append(order, name)
					b.Yield()
				}
				b.Couple()
				return 0
			}
		}
		p.Spawn(mk("a"), SpawnOpts{Name: "a", Scheduler: 0})
		p.Spawn(mk("b"), SpawnOpts{Name: "b", Scheduler: 0})
		reap(t, root, 2)
		// On one scheduler, yields must strictly alternate (either
		// phase is fine; the rendezvous decides who goes first).
		if len(order) != 6 {
			t.Errorf("order = %v, want 6 entries", order)
			return
		}
		for i := 1; i < len(order); i++ {
			if order[i] == order[i-1] {
				t.Errorf("order = %v: not alternating at %d", order, i)
				return
			}
		}
	})
}

func TestULPYieldCostMatchesTableIV(t *testing.T) {
	// Two decoupled ULPs ping-ponging on one scheduler: the per-yield
	// time must reproduce Table IV's "ULP-PiP yield" row (~150 ns on
	// Wallaby, ~120 ns on Albireo).
	cases := []struct {
		m      *arch.Machine
		lo, hi float64
	}{
		{arch.Wallaby(), 140, 160},
		{arch.Albireo(), 110, 130},
	}
	for _, c := range cases {
		c := c
		t.Run(c.m.Name, func(t *testing.T) {
			e := sim.New()
			k := kernel.New(e, c.m)
			var t0, t1 sim.Time
			const warm, measured = 20, 400
			done := false
			root := k.NewTask("root", k.NewAddressSpace(), func(task *kernel.Task) int {
				cfg := testConfig(BusyWait)
				pool, err := NewPool(task, cfg)
				if err != nil {
					t.Error(err)
					return 1
				}
				// TLS descriptors at distinct addresses.
				tlsA, _ := task.Mmap(64, true)
				tlsB, _ := task.Mmap(64, true)
				ready := 0
				pool.Spawn(func(b *BLT) int {
					b.Decouple()
					ready++
					for ready < 2 { // rendezvous: wait for b to arrive
						b.Yield()
					}
					for i := 0; i < warm+measured; i++ {
						if i == warm {
							t0 = e.Now()
						}
						b.Yield()
					}
					t1 = e.Now()
					done = true
					b.Couple()
					return 0
				}, SpawnOpts{Name: "a", Scheduler: 0, TLSBase: tlsA})
				pool.Spawn(func(b *BLT) int {
					b.Decouple()
					ready++
					for !done {
						b.Yield()
					}
					b.Couple()
					return 0
				}, SpawnOpts{Name: "b", Scheduler: 0, TLSBase: tlsB})
				task.Wait()
				task.Wait()
				pool.Shutdown(task)
				return 0
			})
			k.Start(root, 0)
			if err := e.Run(); err != nil {
				t.Fatalf("engine: %v", err)
			}
			perYield := float64(t1.Sub(t0)) / (2 * measured) / 1000
			if perYield < c.lo || perYield > c.hi {
				t.Errorf("%s per-yield = %.1fns, want in [%v,%v]", c.m.Name, perYield, c.lo, c.hi)
			}
		})
	}
}

func TestMNSharedKC(t *testing.T) {
	// §VII extension: several UCs share one original KC and therefore
	// observe the same kernel identity — thread-like consistency.
	runPool(t, arch.Wallaby(), testConfig(BusyWait), func(root *kernel.Task, p *Pool) {
		pids := map[int]bool{}
		mk := func() Body {
			return func(b *BLT) int {
				b.Decouple()
				b.Exec(func(kc *kernel.Task) { pids[kc.Getpid()] = true })
				b.Couple()
				return 0
			}
		}
		first, err := p.Spawn(mk(), SpawnOpts{Name: "m0", Scheduler: 0})
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < 4; i++ {
			if _, err := p.Spawn(mk(), SpawnOpts{Name: "mi", Scheduler: 0, Host: first.Host()}); err != nil {
				t.Fatal(err)
			}
		}
		if first.Host().Residents() != 4 {
			t.Errorf("residents = %d, want 4", first.Host().Residents())
		}
		reap(t, root, 1) // one KC for all four BLTs
		if len(pids) != 1 || !pids[first.KC().TGID()] {
			t.Errorf("M:N pids = %v, want only %d", pids, first.KC().TGID())
		}
		if first.Host().Residents() != 0 {
			t.Errorf("residents = %d after completion", first.Host().Residents())
		}
	})
}

func TestBlockingIdlePolicyWorks(t *testing.T) {
	runPool(t, arch.Wallaby(), testConfig(Blocking), func(root *kernel.Task, p *Pool) {
		total := 0
		for i := 0; i < 3; i++ {
			p.Spawn(func(b *BLT) int {
				b.Decouple()
				for j := 0; j < 2; j++ {
					b.Exec(func(kc *kernel.Task) { total++ })
					b.Yield()
				}
				b.Couple()
				return 0
			}, SpawnOpts{Name: "w", Scheduler: -1})
		}
		reap(t, root, 3)
		if total != 6 {
			t.Errorf("total = %d, want 6", total)
		}
	})
}

func TestPowerProxyBusyWaitSpinsBlockingDoesNot(t *testing.T) {
	// §VII: "busy-waiting consumes more power". The busy-wait pool
	// burns KC cycles while idle; the blocking pool does not.
	spun := map[IdlePolicy]sim.Duration{}
	for _, idle := range []IdlePolicy{BusyWait, Blocking} {
		idle := idle
		runPool(t, arch.Wallaby(), testConfig(idle), func(root *kernel.Task, p *Pool) {
			b, _ := p.Spawn(func(b *BLT) int {
				b.Decouple()
				// Leave the KC idle for a while.
				b.Carrier().Nanosleep(100 * sim.Microsecond)
				b.Couple()
				return 0
			}, SpawnOpts{Name: "idle", Scheduler: -1})
			reap(t, root, 1)
			spun[idle] = b.Host().SpunIdle()
		})
	}
	if spun[BusyWait] < 50*sim.Microsecond {
		t.Errorf("busy-wait KC spun only %v over a 100us idle window", spun[BusyWait])
	}
	if spun[Blocking] != 0 {
		t.Errorf("blocking KC spun %v, want 0", spun[Blocking])
	}
}

func TestDecoupleTwiceAndCoupleTwiceAreNoOps(t *testing.T) {
	runPool(t, arch.Wallaby(), testConfig(BusyWait), func(root *kernel.Task, p *Pool) {
		b, _ := p.Spawn(func(b *BLT) int {
			b.Couple() // already coupled: no-op
			b.Decouple()
			b.Decouple() // no-op
			b.Couple()
			b.Couple() // no-op
			return 0
		}, SpawnOpts{Name: "noop", Scheduler: -1})
		reap(t, root, 1)
		couples, decouples, _ := b.Stats()
		if couples != 1 || decouples != 1 {
			t.Errorf("couples=%d decouples=%d, want 1/1", couples, decouples)
		}
	})
}

func TestManyBLTsOversubscribed(t *testing.T) {
	// Over-subscription (paper Eq. 2): many more BLTs than program
	// cores, all making consistent syscalls.
	runPool(t, arch.Wallaby(), testConfig(BusyWait), func(root *kernel.Task, p *Pool) {
		const n = 12
		bad := 0
		blts := make([]*BLT, n)
		for i := 0; i < n; i++ {
			b, err := p.Spawn(func(b *BLT) int {
				b.Decouple()
				for j := 0; j < 3; j++ {
					b.Exec(func(kc *kernel.Task) {
						if kc.Getpid() != b.KC().TGID() {
							bad++
						}
					})
					b.Yield()
				}
				b.Couple()
				return 0
			}, SpawnOpts{Name: "ov", Scheduler: -1})
			if err != nil {
				t.Fatal(err)
			}
			blts[i] = b
		}
		reap(t, root, n)
		if bad != 0 {
			t.Errorf("%d inconsistent syscalls under oversubscription", bad)
		}
		for _, b := range blts {
			if !b.Done() {
				t.Errorf("%s not done", b)
			}
		}
	})
}

func TestNaiveDecouplingHazardDetected(t *testing.T) {
	// Ablation A3: without a trampoline context, the original KC would
	// resume a context image saved before the scheduler ran the UC —
	// the Fig. 4 stack hazard. uctx detects the stale resume.
	e := sim.New()
	k := kernel.New(e, arch.Wallaby())
	root := k.NewTask("root", k.NewAddressSpace(), func(task *kernel.Task) int {
		uc := uctx.New("victim", func(c *uctx.Context) {
			c.Yield(nil) // "decouple": saved by KC0
			c.Yield(nil) // runs under KC1, stack changes
		})
		// KC0 runs the UC and "saves" it at decouple time.
		uc.Step(task)
		staleSave := uc.SnapshotNow()
		// KC1 (here: same task, any carrier) schedules the UC: the
		// stack state changes.
		uc.Step(task)
		// KC0 tries to resume its stale save: must be detected.
		if _, err := uc.StepFrom(staleSave, task); err == nil {
			t.Error("stale resume after foreign scheduling succeeded; stack corruption undetected")
		}
		uc.Kill()
		return 0
	})
	k.Start(root, 0)
	if err := e.Run(); err != nil {
		t.Fatalf("engine: %v", err)
	}
}

func TestSchedulerDispatchCounts(t *testing.T) {
	runPool(t, arch.Wallaby(), testConfig(BusyWait), func(root *kernel.Task, p *Pool) {
		p.Spawn(func(b *BLT) int {
			b.Decouple()
			for i := 0; i < 5; i++ {
				b.Yield()
			}
			b.Couple()
			return 0
		}, SpawnOpts{Name: "d", Scheduler: 0})
		reap(t, root, 1)
		s := p.Schedulers()[0]
		if s.Dispatches() < 6 {
			t.Errorf("dispatches = %d, want >= 6", s.Dispatches())
		}
	})
}

func TestPoolSpawnAfterShutdownFails(t *testing.T) {
	runPool(t, arch.Wallaby(), testConfig(BusyWait), func(root *kernel.Task, p *Pool) {
		p.Shutdown(root)
		if _, err := p.Spawn(func(b *BLT) int { return 0 }, SpawnOpts{Scheduler: -1}); err != ErrPoolStopped {
			t.Errorf("err = %v, want ErrPoolStopped", err)
		}
	})
}

func TestExitStatusPropagates(t *testing.T) {
	runPool(t, arch.Wallaby(), testConfig(BusyWait), func(root *kernel.Task, p *Pool) {
		b, _ := p.Spawn(func(b *BLT) int {
			b.Decouple()
			b.Couple()
			return 99
		}, SpawnOpts{Name: "status", Scheduler: -1})
		_, status, err := root.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if status != 99 || b.ExitStatus() != 99 {
			t.Errorf("status = %d / %d, want 99", status, b.ExitStatus())
		}
	})
}

func TestStacksLiveInSharedAddressSpace(t *testing.T) {
	// Every UC gets a demand-paged stack VMA of DefaultStackBytes in the
	// shared space, and the trampoline context's stack is much smaller
	// ("the stack region of a trampoline context can be very small",
	// §V-A).
	runPool(t, arch.Wallaby(), testConfig(BusyWait), func(root *kernel.Task, p *Pool) {
		b, err := p.Spawn(func(b *BLT) int { return 0 },
			SpawnOpts{Name: "stacky", Scheduler: -1})
		if err != nil {
			t.Fatal(err)
		}
		reap(t, root, 1)
		addr, size := b.Stack()
		if size != DefaultStackBytes {
			t.Errorf("stack size = %d, want %d", size, DefaultStackBytes)
		}
		vma := root.Space().FindVMA(addr)
		if vma == nil || vma.Label != "stacky.stack" {
			t.Fatalf("stack VMA missing or mislabeled: %v", vma)
		}
		if vma.Len() != DefaultStackBytes {
			t.Errorf("stack VMA = %d, want %d", vma.Len(), DefaultStackBytes)
		}
		tcVMA := root.Space().FindVMA(b.Host().TCStack())
		if tcVMA == nil {
			t.Fatal("TC stack VMA missing")
		}
		if tcVMA.Len() >= vma.Len() {
			t.Errorf("TC stack (%d) not smaller than UC stack (%d)", tcVMA.Len(), vma.Len())
		}
		if tcVMA.Len() != TrampolineStackBytes {
			t.Errorf("TC stack = %d, want %d", tcVMA.Len(), TrampolineStackBytes)
		}
	})
}
