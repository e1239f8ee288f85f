package core

import (
	"errors"
	"testing"

	"repro/internal/arch"
	"repro/internal/blt"
	"repro/internal/fault"
	"repro/internal/fs"
	"repro/internal/kernel"
	"repro/internal/probe"
	"repro/internal/sim"
)

// bootFaults is boot with a fault plane installed before the kernel runs
// anything. It returns the plane for injection-count assertions.
func bootFaults(t *testing.T, cfg Config, seed uint64, specs []fault.Spec,
	main func(rt *Runtime) int) *fault.Plane {
	t.Helper()
	e := sim.New()
	k := kernel.New(e, arch.Wallaby())
	plane := fault.NewPlane(seed, specs)
	plane.Attach(k.Probes())
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
	return plane
}

// TestBootRejectsBadConfig: impossible deployments surface as errors from
// Boot before the simulation starts, never as panics inside it.
func TestBootRejectsBadConfig(t *testing.T) {
	e := sim.New()
	k := kernel.New(e, arch.Wallaby())
	if _, err := Boot(k, Config{SyscallCores: []int{2}}, nil); err == nil {
		t.Error("Boot accepted a config without program cores")
	}
	if _, err := Boot(k, Config{ProgCores: []int{0}}, nil); err == nil {
		t.Error("Boot accepted a config without syscall cores")
	}
	_, err := Boot(k, Config{ProgCores: []int{0}, SyscallCores: []int{99}}, nil)
	if !errors.Is(err, kernel.ErrBadCore) {
		t.Errorf("out-of-range core: err = %v, want ErrBadCore", err)
	}
	// Nothing was scheduled: the engine has no work.
	if err := e.Run(); err != nil {
		t.Fatalf("engine: %v", err)
	}
}

// TestEnvExecErrNotCoupledAfterKCKill pins the Env-level error contract
// when a ULP's original KC is fault-killed: Couple surfaces ErrHostDead,
// Exec refuses to run the function and returns ErrNotCoupled wrapping
// ErrHostDead, and the ULP still finishes (orphaned) with its own status
// visible through WaitAll.
func TestEnvExecErrNotCoupledAfterKCKill(t *testing.T) {
	var coupleErr, execErr error
	execRan := false
	var statuses []int
	var u *ULP
	bootFaults(t, testConfig(blt.Blocking), 1,
		[]fault.Spec{{Site: probe.SiteKCKill, Nth: 3, TaskPrefix: "kc.victim"}},
		func(rt *Runtime) int {
			var err error
			u, err = rt.Spawn(Program("victim", func(env *Env) int {
				env.Decouple()
				coupleErr = env.Couple()
				execErr = env.Exec(func(kc *kernel.Task) { execRan = true })
				return 9
			}), SpawnOpts{Name: "victim", Scheduler: 0})
			if err != nil {
				t.Error(err)
				return 1
			}
			statuses, err = rt.WaitAll()
			if err != nil {
				t.Errorf("WaitAll: %v", err)
			}
			return 0
		})
	if !errors.Is(coupleErr, blt.ErrHostDead) {
		t.Errorf("Env.Couple after KC death = %v, want ErrHostDead", coupleErr)
	}
	if !errors.Is(execErr, blt.ErrNotCoupled) || !errors.Is(execErr, blt.ErrHostDead) {
		t.Errorf("Env.Exec after KC death = %v, want ErrNotCoupled wrapping ErrHostDead", execErr)
	}
	if execRan {
		t.Error("Exec ran its function on a dead KC (consistency violation)")
	}
	if !u.Done() || !u.Orphaned() {
		t.Errorf("ULP done=%v orphaned=%v, want true/true", u.Done(), u.Orphaned())
	}
	if len(statuses) != 1 || statuses[0] != 9 {
		t.Errorf("WaitAll statuses = %v, want [9]", statuses)
	}
}

// TestSignalMidDecoupleLandsOnOriginalKC is the §VII signal caveat under
// an injected scheduler delay: the UC sits mid-decouple (queued, its
// dispatch delayed), so a signal aimed at the ULP cannot hit a scheduling
// KC — it lands on the original KC's disposition, where ucontext-style
// mask switching keeps the ULP's own mask in effect.
func TestSignalMidDecoupleLandsOnOriginalKC(t *testing.T) {
	cfg := testConfig(blt.Blocking)
	cfg.Signals = UcontextMode
	bootFaults(t, cfg, 2,
		[]fault.Spec{{Site: probe.SiteSchedDelay, Every: 1, DelayUS: 1000, TaskPrefix: "sched."}},
		func(rt *Runtime) int {
			deliveries := countDeliveries(rt.Kernel())
			spin := true
			u, err := rt.Spawn(Program("victim", func(env *Env) int {
				env.Decouple()
				for spin {
					env.Compute(sim.Microsecond)
					env.Yield()
				}
				env.Couple()
				return 0
			}), SpawnOpts{Scheduler: 0})
			if err != nil {
				t.Error(err)
				return 1
			}
			root := rt.RootTask()
			// Every dispatch is delayed 1ms while the workload computes
			// ~1us per slice: at t+300us the UC is parked mid-decouple.
			root.Nanosleep(300 * sim.Microsecond)
			if u.Coupled() {
				t.Error("victim unexpectedly coupled; test needs a mid-decouple window")
			}
			if err := rt.SignalULP(root, u, kernel.SIGUSR1); err != nil {
				t.Errorf("SignalULP: %v", err)
			}
			spin = false
			rt.WaitAll()
			if n := deliveries[u.KC()]; n != 1 {
				t.Errorf("original KC deliveries = %d, want 1", n)
			}
			for i, s := range rt.Pool().Schedulers() {
				if n := deliveries[s.Task()]; n != 0 {
					t.Errorf("scheduler %d got %d deliveries, want 0", i, n)
				}
			}
			return 0
		})
}

// TestEnvRetriesTransientInjectedFaults: EINTR/EAGAIN injected into the
// consistent syscall wrappers are retried transparently — the workload
// completes and the file contents are exactly what a fault-free run
// produces.
func TestEnvRetriesTransientInjectedFaults(t *testing.T) {
	var statuses []int
	plane := bootFaults(t, testConfig(blt.Blocking), 7,
		[]fault.Spec{
			{Site: probe.SiteWrite, Every: 2, Err: "eintr"},
			{Site: probe.SiteOpen, Nth: 1, Err: "eagain"},
		},
		func(rt *Runtime) int {
			if _, err := rt.Spawn(Program("io", func(env *Env) int {
				env.Decouple()
				fd, err := env.Open("/r", fs.OCreate|fs.OWrOnly)
				if err != nil {
					return 1
				}
				for i := 0; i < 4; i++ {
					if _, err := env.Write(fd, []byte("abcd")); err != nil {
						return 2
					}
				}
				if err := env.Close(fd); err != nil {
					return 3
				}
				env.Couple()
				return 0
			}), SpawnOpts{Scheduler: -1}); err != nil {
				t.Error(err)
				return 1
			}
			var err error
			statuses, err = rt.WaitAll()
			if err != nil {
				t.Errorf("WaitAll: %v", err)
			}
			ino, err := rt.Kernel().FS().Stat("/r")
			if err != nil || ino.Size() != 16 {
				t.Errorf("file after retries = %v, %v; want 16 bytes", ino, err)
			}
			return 0
		})
	if len(statuses) != 1 || statuses[0] != 0 {
		t.Errorf("statuses = %v, want [0]", statuses)
	}
	if plane.Injections() == 0 {
		t.Error("nothing injected; the test exercised nothing")
	}
}

// TestEnvSurfacesNonTransientFault: ENOSPC is not retried — it surfaces
// from the wrapper immediately, and the next call goes through.
func TestEnvSurfacesNonTransientFault(t *testing.T) {
	var werr error
	var statuses []int
	bootFaults(t, testConfig(blt.BusyWait), 8,
		[]fault.Spec{{Site: probe.SiteWrite, Nth: 1, Err: "enospc"}},
		func(rt *Runtime) int {
			if _, err := rt.Spawn(Program("nospace", func(env *Env) int {
				env.Decouple()
				fd, err := env.Open("/n", fs.OCreate|fs.OWrOnly)
				if err != nil {
					return 1
				}
				_, werr = env.Write(fd, []byte("x"))
				if _, err := env.Write(fd, []byte("ok")); err != nil {
					return 2
				}
				if err := env.Close(fd); err != nil {
					return 3
				}
				env.Couple()
				return 0
			}), SpawnOpts{Scheduler: -1}); err != nil {
				t.Error(err)
				return 1
			}
			var err error
			statuses, err = rt.WaitAll()
			if err != nil {
				t.Errorf("WaitAll: %v", err)
			}
			return 0
		})
	if !errors.Is(werr, kernel.ErrNoSpace) {
		t.Errorf("injected ENOSPC write error = %v, want ErrNoSpace", werr)
	}
	if len(statuses) != 1 || statuses[0] != 0 {
		t.Errorf("statuses = %v, want [0] (the retry-after-ENOSPC write must succeed)", statuses)
	}
}
