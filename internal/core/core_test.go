package core

import (
	"errors"
	"testing"

	"repro/internal/arch"
	"repro/internal/blt"
	"repro/internal/fs"
	"repro/internal/kernel"
	"repro/internal/loader"
	"repro/internal/pip"
	"repro/internal/probe"
	"repro/internal/sim"
)

func testConfig(idle blt.IdlePolicy) Config {
	return Config{
		ProgCores:    []int{0, 1},
		SyscallCores: []int{2, 3},
		Idle:         idle,
		Audit:        true,
	}
}

// countDeliveries attaches a program at signal:deliver that counts the
// signals delivered to each kernel task.
func countDeliveries(k *kernel.Kernel) map[probe.Task]int {
	n := map[probe.Task]int{}
	k.Probes().Attach("deliveries", func(c *probe.Ctx) probe.Verdict {
		n[c.Task]++
		return probe.Verdict{}
	}, probe.PSignal)
	return n
}

// boot runs main inside a booted runtime and drives the engine.
func boot(t *testing.T, m *arch.Machine, cfg Config, main func(rt *Runtime) int) {
	t.Helper()
	e := sim.New()
	k := kernel.New(e, m)
	if _, err := Boot(k, cfg, func(rt *Runtime) int {
		status := main(rt)
		rt.Shutdown()
		return status
	}); err != nil {
		t.Fatalf("boot: %v", err)
	}
	if err := e.Run(); err != nil {
		t.Fatalf("engine: %v", err)
	}
}

func TestULPSyscallConsistency(t *testing.T) {
	for _, idle := range []blt.IdlePolicy{blt.BusyWait, blt.Blocking} {
		idle := idle
		t.Run(idle.String(), func(t *testing.T) {
			boot(t, arch.Wallaby(), testConfig(idle), func(rt *Runtime) int {
				var myPID, consistent1, consistent2, rawWhileDecoupled int
				u, err := rt.Spawn(Program("prog", func(env *Env) int {
					myPID = env.Getpid() // coupled bracket
					env.Decouple()
					consistent1 = env.Getpid()          // Exec bracket couples
					rawWhileDecoupled = env.GetpidRaw() // scheduler's pid
					consistent2 = env.Getpid()
					env.Couple()
					return 0
				}), SpawnOpts{Scheduler: -1})
				if err != nil {
					t.Error(err)
					return 1
				}
				rt.WaitAll()
				kcPID := u.KC().TGID()
				if myPID != kcPID || consistent1 != kcPID || consistent2 != kcPID {
					t.Errorf("consistent getpid = %d/%d/%d, want %d", myPID, consistent1, consistent2, kcPID)
				}
				if rawWhileDecoupled == kcPID {
					t.Error("raw decoupled getpid unexpectedly consistent")
				}
				// The auditor recorded exactly the raw call.
				v := rt.Violations()
				if len(v) != 1 || v[0].Syscall != "getpid" || v[0].ULP != u.Name() {
					t.Errorf("violations = %+v, want 1 raw getpid by %s", v, u.Name())
				}
				return 0
			})
		})
	}
}

func TestULPFileConsistencyAcrossScheduling(t *testing.T) {
	// open/write/close from a decoupled ULP, with yields in between:
	// all three syscalls must hit the same (original) KC's fd table.
	boot(t, arch.Wallaby(), testConfig(blt.BusyWait), func(rt *Runtime) int {
		ok := false
		u, _ := rt.Spawn(Program("io", func(env *Env) int {
			env.Decouple()
			fd, err := env.Open("/t", fs.OCreate|fs.OWrOnly)
			if err != nil {
				return 1
			}
			env.Yield()
			if _, err := env.Write(fd, []byte("hello")); err != nil {
				return 2
			}
			env.Yield()
			if err := env.Close(fd); err != nil {
				return 3
			}
			ok = true
			env.Couple()
			return 0
		}), SpawnOpts{Scheduler: -1})
		statuses, err := rt.WaitAll()
		if err != nil {
			t.Error(err)
		}
		if !ok || statuses[0] != 0 {
			t.Errorf("io ULP failed: ok=%v status=%d", ok, statuses[0])
		}
		if n := len(rt.Violations()); n != 0 {
			t.Errorf("%d violations from Exec-bracketed I/O", n)
		}
		// The file exists with the right content on the machine fs.
		ino, err := rt.Kernel().FS().Stat("/t")
		if err != nil || ino.Size() != 5 {
			t.Errorf("file = %v, %v", ino, err)
		}
		_ = u
		return 0
	})
}

func TestPrivatizationAcrossULPs(t *testing.T) {
	boot(t, arch.Wallaby(), testConfig(blt.BusyWait), func(rt *Runtime) int {
		program := Program("var", func(env *Env) int {
			addr, _ := env.SymbolAddr("state")
			return int(addr % 251) // report something address-derived
		})
		u1, _ := rt.Spawn(program, SpawnOpts{Scheduler: -1})
		u2, _ := rt.Spawn(program, SpawnOpts{Scheduler: -1})
		rt.WaitAll()
		a1, _ := u1.Linked.SymbolAddr("state")
		a2, _ := u2.Linked.SymbolAddr("state")
		if a1 == a2 {
			t.Error("ULPs share a privatized variable address")
		}
		if u1.TLSBase() == u2.TLSBase() {
			t.Error("ULPs share a TLS block")
		}
		return 0
	})
}

func TestGetpidCoupleDecoupleCostTableV(t *testing.T) {
	// Table V: getpid() enclosed in couple()/decouple() — BUSYWAIT and
	// BLOCKING on both machines. Check ordering properties (shape):
	// Linux < BUSYWAIT < BLOCKING, overhead on the order of µs.
	type result struct{ plain, busy, blk float64 }
	measure := func(m *arch.Machine, idle blt.IdlePolicy) float64 {
		var per float64
		boot(t, m, testConfig(idle), func(rt *Runtime) int {
			e := rt.Kernel().Engine()
			rt.Spawn(Program("bench", func(env *Env) int {
				env.Decouple()
				const warm, n = 10, 100
				var t0 sim.Time
				for i := 0; i < warm+n; i++ {
					if i == warm {
						t0 = e.Now()
					}
					env.Getpid()
				}
				per = float64(e.Now().Sub(t0)) / n / 1000
				env.Couple()
				return 0
			}), SpawnOpts{Scheduler: -1})
			rt.WaitAll()
			return 0
		})
		return per
	}
	for _, m := range arch.Machines() {
		plain := m.SyscallCost(m.Costs.GetPIDWork).Nanoseconds()
		busy := measure(m, blt.BusyWait)
		blk := measure(m, blt.Blocking)
		if !(plain < busy && busy < blk) {
			t.Errorf("%s: ordering plain(%.0f) < busywait(%.0f) < blocking(%.0f) violated",
				m.Name, plain, busy, blk)
		}
		if busy < 500 || busy > 6000 {
			t.Errorf("%s: busywait getpid = %.0fns, want microsecond-scale", m.Name, busy)
		}
	}
}

func TestMNSharedKCULPs(t *testing.T) {
	boot(t, arch.Wallaby(), testConfig(blt.BusyWait), func(rt *Runtime) int {
		pids := map[int]bool{}
		prog := Program("mn", func(env *Env) int {
			env.Decouple()
			pids[env.Getpid()] = true
			env.Couple()
			return 0
		})
		u0, err := rt.Spawn(prog, SpawnOpts{Scheduler: -1})
		if err != nil {
			t.Error(err)
			return 1
		}
		for i := 0; i < 3; i++ {
			if _, err := rt.Spawn(prog, SpawnOpts{Scheduler: -1, ShareKCWith: u0}); err != nil {
				t.Error(err)
				return 1
			}
		}
		rt.WaitAll()
		// §VII: UCs with the same original KC see the same kernel info.
		if len(pids) != 1 || !pids[u0.KC().TGID()] {
			t.Errorf("M:N pids = %v, want only %d", pids, u0.KC().TGID())
		}
		return 0
	})
}

func TestSignalLandsOnSchedulingKCInFcontextMode(t *testing.T) {
	// §VII: "if one tries to send a signal to a UC, then the signal is
	// delivered to the scheduling KC".
	boot(t, arch.Wallaby(), testConfig(blt.BusyWait), func(rt *Runtime) int {
		deliveries := countDeliveries(rt.Kernel())
		spin := true
		u, _ := rt.Spawn(Program("victim", func(env *Env) int {
			env.Decouple()
			for spin {
				env.Compute(sim.Microsecond)
				env.Yield()
			}
			env.Couple()
			return 0
		}), SpawnOpts{Scheduler: 0})
		root := rt.RootTask()
		root.Nanosleep(200 * sim.Microsecond) // victim is now decoupled, running
		sched := rt.Pool().Schedulers()[0].Task()
		if err := rt.SignalULP(root, u, kernel.SIGUSR1); err != nil {
			t.Errorf("SignalULP: %v", err)
		}
		spin = false
		rt.WaitAll()
		// The delivery must land on the *scheduler's* disposition.
		if n := deliveries[sched]; n != 1 {
			t.Errorf("scheduler deliveries = %d, want 1", n)
		}
		if n := deliveries[u.KC()]; n != 0 {
			t.Errorf("ULP KC deliveries = %d, want 0", n)
		}
		return 0
	})
}

func TestUcontextModeCostsMorePerYield(t *testing.T) {
	// §VII: ucontext-style switching saves/restores signal masks at a
	// system-call per switch — measurably slower yields.
	measure := func(mode SignalMode) float64 {
		var per float64
		cfg := testConfig(blt.BusyWait)
		cfg.Signals = mode
		boot(t, arch.Wallaby(), cfg, func(rt *Runtime) int {
			e := rt.Kernel().Engine()
			ready, done := 0, false
			prog := func(measureIt bool) *loader.Image {
				return Program("y", func(env *Env) int {
					env.Decouple()
					ready++
					for ready < 2 {
						env.Yield()
					}
					if measureIt {
						const warm, n = 10, 200
						var t0 sim.Time
						for i := 0; i < warm+n; i++ {
							if i == warm {
								t0 = e.Now()
							}
							env.Yield()
						}
						per = float64(e.Now().Sub(t0)) / (2 * n) / 1000
						done = true
					} else {
						for !done {
							env.Yield()
						}
					}
					env.Couple()
					return 0
				})
			}
			rt.Spawn(prog(true), SpawnOpts{Scheduler: 0})
			rt.Spawn(prog(false), SpawnOpts{Scheduler: 0})
			rt.WaitAll()
			return 0
		})
		return per
	}
	fc := measure(FcontextMode)
	uc := measure(UcontextMode)
	want := arch.Wallaby().Costs.SigmaskSwitch.Nanoseconds()
	if uc-fc < want*0.8 {
		t.Errorf("ucontext yield overhead = %.1fns, want >= ~%.0fns", uc-fc, want)
	}
}

func TestWaitAllStatuses(t *testing.T) {
	boot(t, arch.Wallaby(), testConfig(blt.BusyWait), func(rt *Runtime) int {
		prog := Program("st", func(env *Env) int {
			return env.Rank * 10
		})
		for i := 0; i < 3; i++ {
			rt.Spawn(prog, SpawnOpts{Scheduler: -1})
		}
		statuses, err := rt.WaitAll()
		if err != nil {
			t.Error(err)
		}
		for i, s := range statuses {
			if s != i*10 {
				t.Errorf("status[%d] = %d, want %d", i, s, i*10)
			}
		}
		return 0
	})
}

func TestTLSRegisterFollowsULP(t *testing.T) {
	boot(t, arch.Albireo(), testConfig(blt.BusyWait), func(rt *Runtime) int {
		okCoupled, okDecoupled := false, false
		u, _ := rt.Spawn(Program("tls", func(env *Env) int {
			okCoupled = env.Carrier().TLSReg() == env.TLSBase()
			env.Decouple()
			okDecoupled = env.Carrier().TLSReg() == env.TLSBase()
			env.Couple()
			return 0
		}), SpawnOpts{Scheduler: -1})
		rt.WaitAll()
		if !okCoupled {
			t.Error("TLS register wrong while coupled")
		}
		if !okDecoupled {
			t.Error("TLS register wrong while decoupled (scheduler must load it)")
		}
		_ = u
		return 0
	})
}

func TestEnvTLSAddrIsolation(t *testing.T) {
	boot(t, arch.Wallaby(), testConfig(blt.BusyWait), func(rt *Runtime) int {
		prog := Program("errno", func(env *Env) int {
			addr, err := env.TLSAddr("errno")
			if err != nil {
				return 1
			}
			if err := env.MemWrite(addr, []byte{byte(env.Rank + 5)}); err != nil {
				return 2
			}
			return 0
		})
		u0, _ := rt.Spawn(prog, SpawnOpts{Scheduler: -1})
		u1, _ := rt.Spawn(prog, SpawnOpts{Scheduler: -1})
		rt.WaitAll()
		b := make([]byte, 1)
		off := u0.Linked.TLS().Offsets["errno"]
		rt.RootTask().MemRead(u0.TLSBase()+off, b)
		if b[0] != 5 {
			t.Errorf("ULP0 errno = %d, want 5", b[0])
		}
		rt.RootTask().MemRead(u1.TLSBase()+off, b)
		if b[0] != 6 {
			t.Errorf("ULP1 errno = %d, want 6", b[0])
		}
		return 0
	})
}

func TestEnvExportImportAndRead(t *testing.T) {
	boot(t, arch.Wallaby(), testConfig(blt.BusyWait), func(rt *Runtime) int {
		producer := Program("prod", func(env *Env) int {
			addr, _ := env.SymbolAddr("state")
			env.MemWrite(addr, []byte("exported!"))
			if err := env.Export("blob", "state"); err != nil {
				return 1
			}
			if err := env.Export("blob2", "missing-symbol"); err == nil {
				return 2
			}
			return 0
		})
		consumer := Program("cons", func(env *Env) int {
			addr, err := env.Import("blob")
			if err != nil {
				return 1
			}
			buf := make([]byte, 9)
			if err := env.MemRead(addr, buf); err != nil || string(buf) != "exported!" {
				return 2
			}
			if _, err := env.Import("nope"); !errors.Is(err, pip.ErrNoExport) {
				return 3
			}
			// Consistent file read path.
			fd, err := env.Open("/xfile", fs.OCreate|fs.ORdWr)
			if err != nil {
				return 4
			}
			if _, err := env.Write(fd, []byte("roundtrip")); err != nil {
				return 5
			}
			env.Exec(func(kc *kernel.Task) { kc.Seek(fd, 0) })
			rbuf := make([]byte, 9)
			if n, err := env.Read(fd, rbuf); err != nil || n != 9 || string(rbuf) != "roundtrip" {
				return 6
			}
			env.Close(fd)
			return 0
		})
		rt.Spawn(producer, SpawnOpts{Scheduler: -1})
		rt.WaitAll()
		rt.Spawn(consumer, SpawnOpts{Scheduler: -1})
		rt.RootTask().Wait()
		for _, u := range rt.ULPs() {
			if !u.Done() || u.ExitStatus() != 0 {
				t.Errorf("%s: done=%v status=%d", u.Name(), u.Done(), u.ExitStatus())
			}
		}
		if rt.Config().Idle != blt.BusyWait {
			t.Error("Config accessor wrong")
		}
		return 0
	})
}

func TestEnvSetSigMaskWhileDecoupled(t *testing.T) {
	cfg := testConfig(blt.BusyWait)
	cfg.Signals = UcontextMode
	boot(t, arch.Wallaby(), cfg, func(rt *Runtime) int {
		maskSeen := uint64(0)
		u, _ := rt.Spawn(Program("masker", func(env *Env) int {
			env.Decouple()
			env.SetSigMask(1 << kernel.SIGUSR1)
			env.Yield() // cross a context switch: mask must follow the UC
			maskSeen = env.Carrier().SigmaskRaw()
			env.Couple()
			return 0
		}), SpawnOpts{Scheduler: -1})
		rt.WaitAll()
		if maskSeen != 1<<kernel.SIGUSR1 {
			t.Errorf("mask after switch = %#x, want %#x", maskSeen, 1<<kernel.SIGUSR1)
		}
		if u.SigMask() != 1<<kernel.SIGUSR1 {
			t.Error("BLT mask not recorded")
		}
		if FcontextMode.String() != "fcontext" || UcontextMode.String() != "ucontext" {
			t.Error("SignalMode strings")
		}
		return 0
	})
}

func TestLibcErrnoPrivatizedViaSharedObjectDep(t *testing.T) {
	// The canonical PiP demo: errno is a TLS variable of a *shared
	// object* (libc), yet each ULP gets its own instance because
	// dlmopen loads the dependency closure per namespace.
	libc := &loader.Image{
		Name: "libc.so", PIE: true, TextSize: 4096,
		Symbols: []loader.Symbol{
			{Name: "errno", Size: 4, TLS: true},
			{Name: "environ", Size: 32},
		},
	}
	app := &loader.Image{
		Name: "app", PIE: true, TextSize: 4096,
		Symbols: []loader.Symbol{{Name: "x", Size: 8}},
		Deps:    []*loader.Image{libc},
		Main: func(envI interface{}) int {
			env := envI.(*Env)
			addr, err := env.TLSAddr("errno") // resolves through the dep
			if err != nil {
				return 1
			}
			if err := env.MemWrite(addr, []byte{byte(env.Rank + 40)}); err != nil {
				return 2
			}
			return 0
		},
	}
	boot(t, arch.Wallaby(), testConfig(blt.BusyWait), func(rt *Runtime) int {
		u0, err := rt.Spawn(app, SpawnOpts{Scheduler: -1})
		if err != nil {
			t.Error(err)
			return 1
		}
		u1, _ := rt.Spawn(app, SpawnOpts{Scheduler: -1})
		rt.WaitAll()
		off0 := u0.Linked.TLS().Offsets["errno"]
		off1 := u1.Linked.TLS().Offsets["errno"]
		b := make([]byte, 1)
		rt.RootTask().MemRead(u0.TLSBase()+off0, b)
		if b[0] != 40 {
			t.Errorf("ULP0 errno = %d, want 40", b[0])
		}
		rt.RootTask().MemRead(u1.TLSBase()+off1, b)
		if b[0] != 41 {
			t.Errorf("ULP1 errno = %d, want 41", b[0])
		}
		// The library's *data* symbol is privatized per namespace too.
		e0, _ := u0.Linked.SymbolAddr("environ")
		e1, _ := u1.Linked.SymbolAddr("environ")
		if e0 == e1 || e0 == 0 {
			t.Errorf("environ not privatized: %#x vs %#x", e0, e1)
		}
		return 0
	})
}
