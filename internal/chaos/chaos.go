// Package chaos is the seeded fuzzer for the Table I protocol: it boots
// a full ULP-PiP runtime under a fault plane, drives a random-but-seeded
// mix of the operations the paper cares about (compute, user-level
// yields, consistent open-write-read-close brackets, couple/decouple
// churn, signals aimed at ULPs) and checks the properties that must
// survive any fault schedule:
//
//   - system-call consistency: no audited call ever executes on a
//     scheduling KC, and every coupled getpid sees the original KC's pid;
//   - no lost BLTs: WaitAll terminates and reports every ULP's own exit
//     status, fault-killed KCs notwithstanding;
//   - determinism: the same (seed, specs) pair reproduces the identical
//     digest — end time, statuses, syscall and context-switch counts,
//     injection count — so any failure replays from one seed.
//
// A failing seed is replayable outside the test harness:
//
//	ulpsim -chaos -seed N -faults '<specs>' -machine Wallaby
package chaos

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/blt"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/fs"
	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/planes"
	"repro/internal/probe"
	"repro/internal/sim"
)

// Config parameterizes one chaos run.
type Config struct {
	Machine *arch.Machine
	Seed    uint64
	Specs   []fault.Spec // nil means DefaultSpecs()

	ULPs    int // number of ULPs (default 6)
	Ops     int // operations per ULP (default 24)
	Signals int // SIGUSR1s aimed at random ULPs mid-run (default 4)

	Idle    blt.IdlePolicy
	SigMode core.SignalMode

	// The planes (see planeOptions). Traces, metrics, observe-only probes
	// and the fifo policy leave the digest as it is; a throttle, another
	// policy or Supervise change it by design. A failing probe check or a
	// watchdog wait-for cycle fails the run: under this fault mix the
	// protocol must never deadlock.
	Trace        *sim.Tracer
	Metrics      *metrics.Registry
	Probes       []probe.Spec
	SchedPolicy  string
	Supervise    bool
	StallHorizon sim.Duration
}

// Digest is the deterministic fingerprint of one chaos run: two runs of
// the same (seed, specs) must produce identical digests.
type Digest struct {
	EndTime    sim.Time
	Statuses   []int
	Syscalls   uint64
	CtxSwitch  uint64
	Injections uint64
	Orphans    int
}

// Equal reports whether two digests are identical.
func (d Digest) Equal(o Digest) bool {
	if d.EndTime != o.EndTime || d.Syscalls != o.Syscalls ||
		d.CtxSwitch != o.CtxSwitch || d.Injections != o.Injections ||
		d.Orphans != o.Orphans || len(d.Statuses) != len(o.Statuses) {
		return false
	}
	for i := range d.Statuses {
		if d.Statuses[i] != o.Statuses[i] {
			return false
		}
	}
	return true
}

// String renders the digest on one line.
func (d Digest) String() string {
	return fmt.Sprintf("end=%v statuses=%v syscalls=%d ctxsw=%d injections=%d orphans=%d",
		d.EndTime, d.Statuses, d.Syscalls, d.CtxSwitch, d.Injections, d.Orphans)
}

// DefaultSpecs is the standard chaos fault mix: transient syscall errors,
// futex-level misbehaviour, scheduler jitter, slow storage, and rare
// KC/scheduler kills scoped so they can only hit chaos tasks.
func DefaultSpecs() []fault.Spec {
	return []fault.Spec{
		{Site: probe.SiteFutexLostWake, Prob: 0.05},
		{Site: probe.SiteFutexSpurious, Prob: 0.05},
		{Site: probe.SiteFutexWait, Prob: 0.04, Err: "eintr"},
		{Site: probe.SiteOpen, Prob: 0.05, Err: "eagain"},
		{Site: probe.SiteWrite, Prob: 0.04, Err: "eintr"},
		{Site: probe.SiteRead, Prob: 0.03, Err: "eintr"},
		{Site: probe.SiteSchedDelay, Prob: 0.03, DelayUS: 40},
		{Site: probe.SiteKCKill, Prob: 0.002, TaskPrefix: "kc.chaos"},
		{Site: probe.SiteSchedKill, Prob: 0.001, TaskPrefix: "sched."},
		{Site: probe.SiteFSSlow, Factor: 3},
	}
}

// ReproCommand returns the ulpsim invocation that replays this run,
// with the defaults a run fills in spelled out.
func ReproCommand(cfg Config) string {
	cfg = cfg.withDefaults()
	return fmt.Sprintf("ulpsim -chaos -machine %s -idle %s -signals %s -ulps %d -ops %d -seed %d",
		cfg.Machine.Name, cfg.Idle, cfg.SigMode, cfg.ULPs, cfg.Ops, cfg.Seed) + cfg.planeOptions().Flags()
}

// planeOptions is the one place the run's plane fields become the
// options planes.Install takes.
func (cfg Config) planeOptions() planes.Options {
	return planes.Options{
		Policy: cfg.SchedPolicy, Faults: cfg.Specs, Probes: cfg.Probes,
		Supervise: cfg.Supervise, StallHorizon: cfg.StallHorizon, Seed: cfg.Seed,
		Metrics: cfg.Metrics, Trace: cfg.Trace,
	}
}

// expectedStatus is the exit status rank's program returns; a run loses a
// BLT exactly when some reported status differs.
func expectedStatus(rank int) int { return 40 + rank%50 }

// withDefaults fills zero fields.
func (cfg Config) withDefaults() Config {
	if cfg.Machine == nil {
		cfg.Machine = arch.Wallaby()
	}
	if cfg.Specs == nil {
		cfg.Specs = DefaultSpecs()
	}
	if cfg.ULPs == 0 {
		cfg.ULPs = 6
	}
	if cfg.Ops == 0 {
		cfg.Ops = 24
	}
	if cfg.Signals == 0 {
		cfg.Signals = 4
	}
	return cfg
}

// Run executes one chaos run and verifies its invariants. A non-nil
// error means a property the protocol guarantees was violated under the
// injected fault schedule; the message includes the repro command.
func Run(cfg Config) (Digest, error) {
	d, _, err := RunWithStats(cfg)
	return d, err
}

// RunWithStats is Run plus the planes' report (per-spec fault counters,
// probe reports), for the ulpsim -chaos report.
func RunWithStats(cfg Config) (Digest, planes.Report, error) {
	cfg = cfg.withDefaults()
	e := sim.New()
	k := kernel.New(e, cfg.Machine)
	pl, err := planes.Install(k, cfg.planeOptions())
	if err != nil {
		return Digest{}, planes.Report{}, err
	}

	img := core.Program("chaos", chaosMain)

	mismatches := 0
	var statuses []int
	var waitErr error
	var violations int
	orphans := 0

	_, bootErr := core.Boot(k, core.Config{
		ProgCores:    []int{0, 1},
		SyscallCores: []int{2, 3},
		Idle:         cfg.Idle,
		Signals:      cfg.SigMode,
		Audit:        true, // collect mode: violations recorded, run completes
	}, func(rt *core.Runtime) int {
		buf := make([]byte, 512)
		ulps := make([]*core.ULP, 0, cfg.ULPs)
		for i := 0; i < cfg.ULPs; i++ {
			u, err := rt.Spawn(img, core.SpawnOpts{
				Name:      fmt.Sprintf("chaos.%d", i),
				Scheduler: -1,
				Arg: &rankArg{
					rng: sim.NewRNG(sim.SplitMix(cfg.Seed, 0x1000+uint64(i))),
					ops: cfg.Ops, buf: buf,
					mismatch: func() { mismatches++ },
				},
			})
			if err != nil {
				waitErr = err
				return 1
			}
			ulps = append(ulps, u)
		}
		// The signal storm: a thread of the root aims SIGUSR1 at random
		// ULPs at seeded virtual times. With fcontext-mode switching they
		// land on whatever KC carries the ULP (the §VII caveat) — either
		// way they must only cost EINTR retries, never a hang or a panic.
		sig := rt.RootTask().Clone("chaos.sig", kernel.PThreadFlags, func(t *kernel.Task) int {
			r := sim.NewRNG(sim.SplitMix(cfg.Seed, 0x516))
			for i := 0; i < cfg.Signals; i++ {
				t.Nanosleep(r.Duration(10*sim.Microsecond, 300*sim.Microsecond))
				rt.SignalULP(t, ulps[r.Intn(len(ulps))], kernel.SIGUSR1) // error ignored: target may be gone
			}
			return 0
		})
		statuses, waitErr = rt.WaitAll()
		rt.RootTask().Join(sig)
		violations = len(rt.Violations())
		for _, u := range ulps {
			if u.Orphaned() {
				orphans++
			}
		}
		rt.Shutdown()
		return 0
	})
	if bootErr != nil {
		return Digest{}, planes.Report{}, bootErr
	}
	runErr := e.Run()
	r := pl.Finish()
	if runErr != nil {
		return Digest{}, r, fmt.Errorf("engine: %w\nrepro: %s", runErr, ReproCommand(cfg))
	}

	d := Digest{
		EndTime:    e.Now(),
		Statuses:   statuses,
		Syscalls:   k.Syscalls(),
		CtxSwitch:  k.ContextSwitches(),
		Injections: r.Injections,
		Orphans:    orphans,
	}
	fail := func(format string, args ...interface{}) (Digest, planes.Report, error) {
		return d, r, fmt.Errorf(format+"\nrepro: %s", append(args, ReproCommand(cfg))...)
	}
	if waitErr != nil {
		return fail("WaitAll: %v", waitErr)
	}
	if len(statuses) != cfg.ULPs {
		return fail("lost BLTs: %d statuses for %d ULPs", len(statuses), cfg.ULPs)
	}
	for i, s := range statuses {
		if s != expectedStatus(i) {
			return fail("ULP %d exit status %d, want %d (lost or corrupted BLT)", i, s, expectedStatus(i))
		}
	}
	if violations != 0 {
		return fail("%d system-call consistency violations", violations)
	}
	if mismatches != 0 {
		return fail("%d coupled getpid mismatches", mismatches)
	}
	if pl.Sup != nil {
		if dl := pl.Sup.Deadlocks(); len(dl) != 0 {
			return fail("supervision watchdog found %d wait-for cycle(s), first %v", len(dl), dl[0])
		}
	}
	if r.Err != nil {
		return fail("%v", r.Err)
	}
	return d, r, nil
}

// rankArg carries one rank's seeded op stream into chaosMain.
type rankArg struct {
	rng      *sim.RNG
	ops      int
	buf      []byte
	mismatch func()
}

// chaosMain is the per-ULP program: a seeded mix of the operations whose
// interleavings the Table I protocol must survive. Every injected error
// is tolerated the way a robust application would: transient failures
// were already retried by the Env wrappers, terminal ones (dead KC,
// ENOSPC) skip the operation.
func chaosMain(env *core.Env) int {
	a := env.Arg.(*rankArg)
	r := a.rng
	rank := env.Rank
	rbuf := make([]byte, len(a.buf))
	env.Decouple()
	for i := 0; i < a.ops; i++ {
		switch r.Intn(10) {
		case 0, 1, 2:
			env.Compute(r.Duration(sim.Microsecond, 8*sim.Microsecond))
		case 3, 4:
			env.Yield()
		case 5, 6:
			// Consistent open-write-close bracket (the Fig. 6 op).
			fd, err := env.Open(fmt.Sprintf("/chaos.%d", rank), fs.OCreate|fs.OWrOnly)
			if err == nil {
				n := 1 + r.Intn(len(a.buf)-1)
				env.Write(fd, a.buf[:n])
				env.Close(fd)
			}
		case 7:
			// Write-then-read-back through the same KC's fd table.
			fd, err := env.Open(fmt.Sprintf("/chaos.%d.rw", rank), fs.OCreate|fs.ORdWr)
			if err == nil {
				n := 1 + r.Intn(64)
				env.Write(fd, a.buf[:n])
				env.Exec(func(kc *kernel.Task) { kc.Seek(fd, 0) })
				env.Read(fd, rbuf[:n])
				env.Close(fd)
			}
		case 8:
			// Consistency probe: a coupled getpid must see the original
			// KC's pid — read from the host at probe time, because under
			// supervision a fault-killed KC may have been respawned with
			// a fresh pid, and that new kernel state is what consistency
			// now means. If coupling is impossible (KC dead for good) the
			// probe is skipped — Exec guarantees fn never ran elsewhere.
			var pid int
			if err := env.Exec(func(kc *kernel.Task) { pid = kc.Getpid() }); err == nil && pid != env.KC().TGID() {
				a.mismatch()
			}
		case 9:
			// Couple/decouple churn: the Table I handshake itself. A
			// failed Couple (fault-killed KC) leaves the ULP decoupled.
			if env.Coupled() {
				env.Decouple()
			} else {
				env.Couple()
			}
		}
	}
	return 40 + rank%50
}
