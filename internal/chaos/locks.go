package chaos

// Lock-lab chaos: every algorithm in internal/sync runs under the
// futex-heavy fault mix — lost wakes, spurious wakes, EINTR, scheduler
// delay — and must keep mutual exclusion, liveness and a deterministic
// digest. The workload ends with a condvar barrier whose broadcast
// drains through FUTEX_CMP_REQUEUE, so the requeue path (wake half,
// move half, timers surviving the move) is fuzzed on every run.

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/fault"
	"repro/internal/kernel"
	"repro/internal/planes"
	"repro/internal/probe"
	"repro/internal/sim"
	usync "repro/internal/sync"
)

// LockConfig parameterizes one lock-chaos run.
type LockConfig struct {
	Machine *arch.Machine
	Lock    string // algorithm name (see sync.Names)
	Seed    uint64
	Specs   []fault.Spec // nil means LockSpecs()
	Tasks   int          // contending tasks (default 6)
	Ops     int          // acquisitions per task (default 20)
}

// LockSpecs is the default fault mix for lock chaos: heavier on the
// futex sites than DefaultSpecs, since that is the machinery every
// algorithm's slow path leans on.
func LockSpecs() []fault.Spec {
	return []fault.Spec{
		{Site: probe.SiteFutexLostWake, Prob: 0.08},
		{Site: probe.SiteFutexSpurious, Prob: 0.08},
		{Site: probe.SiteFutexWait, Prob: 0.05, Err: "eintr"},
		{Site: probe.SiteSchedDelay, Prob: 0.03, DelayUS: 40},
	}
}

// LockDigest is the deterministic fingerprint of one lock-chaos run:
// two runs of the same (lock, seed, specs) must produce identical
// digests.
type LockDigest struct {
	EndTime    sim.Time
	Counter    uint64
	Syscalls   uint64
	CtxSwitch  uint64
	Injections uint64
	Futex      kernel.FutexStats
}

// Equal reports whether two digests are identical.
func (d LockDigest) Equal(o LockDigest) bool { return d == o }

// String renders the digest on one line.
func (d LockDigest) String() string {
	return fmt.Sprintf("end=%v counter=%d syscalls=%d ctxsw=%d injections=%d futex=%+v",
		d.EndTime, d.Counter, d.Syscalls, d.CtxSwitch, d.Injections, d.Futex)
}

func (cfg LockConfig) withDefaults() LockConfig {
	if cfg.Machine == nil {
		cfg.Machine = arch.Wallaby()
	}
	if cfg.Tasks == 0 {
		cfg.Tasks = 6
	}
	if cfg.Ops == 0 {
		cfg.Ops = 20
	}
	if cfg.Specs == nil {
		cfg.Specs = LockSpecs()
	}
	return cfg
}

// RunLock drives Tasks tasks through Ops lock-protected increments of a
// deliberately non-atomic counter, then gathers them on a condvar
// barrier released by one Broadcast. Invariants checked: every task
// finishes (no fault schedule may cost liveness), the counter is exact
// (mutual exclusion under faults), and the futex claim ledger is
// conserved.
func RunLock(cfg LockConfig) (LockDigest, error) {
	cfg = cfg.withDefaults()
	e := sim.New()
	k := kernel.New(e, cfg.Machine)
	pl, _ := planes.Install(k, planes.Options{Seed: cfg.Seed, Faults: cfg.Specs}) // no policy, so no error

	var counter uint64
	var setupErr error
	root := k.NewTask("lockchaos-root", k.NewAddressSpace(), func(t *kernel.Task) int {
		l, err := usync.New(t, cfg.Lock, usync.Config{})
		if err != nil {
			setupErr = err
			return 1
		}
		ctr, err := t.Mmap(8, true)
		if err != nil {
			setupErr = err
			return 1
		}
		m, err := usync.NewMutex(t, usync.Config{})
		if err != nil {
			setupErr = err
			return 1
		}
		cv, err := usync.NewCond(t, m)
		if err != nil {
			setupErr = err
			return 1
		}
		arrived := 0
		space := t.Space()
		worker := func(rank int) func(*kernel.Task) int {
			return func(t *kernel.Task) int {
				rng := sim.NewRNG(sim.SplitMix(cfg.Seed, 0x10c0+uint64(rank)))
				for op := 0; op < cfg.Ops; op++ {
					l.Lock(t)
					// The critical section is deliberately racy: read, burn
					// seeded time, write back. Any exclusion hole under this
					// fault schedule shows up as a lost update.
					v, _ := space.ReadU64(ctr, nil)
					t.Compute(rng.Duration(100*sim.Nanosecond, 2*sim.Microsecond))
					space.WriteU64(ctr, v+1, nil)
					l.Unlock(t)
					t.Compute(rng.Duration(0, 3*sim.Microsecond))
				}
				// Condvar barrier: the last arrival broadcasts, requeueing
				// the rest onto the mutex word.
				m.Lock(t)
				arrived++
				if arrived == cfg.Tasks {
					cv.Broadcast(t)
				}
				for arrived < cfg.Tasks {
					cv.Wait(t)
				}
				m.Unlock(t)
				return 0
			}
		}
		kids := make([]*kernel.Task, cfg.Tasks)
		for i := range kids {
			kids[i] = t.Clone(fmt.Sprintf("lock.%s.%d", cfg.Lock, i), kernel.PThreadFlags, worker(i))
		}
		bad := 0
		for _, kid := range kids {
			if t.Join(kid) != 0 {
				bad++
			}
		}
		counter, _ = space.ReadU64(ctr, nil)
		return bad
	})
	k.Start(root, 0)
	if err := e.Run(); err != nil {
		return LockDigest{}, fmt.Errorf("lock chaos %s seed=%d: %v", cfg.Lock, cfg.Seed, err)
	}
	if setupErr != nil {
		return LockDigest{}, setupErr
	}
	if !root.Exited() || root.ExitCode() != 0 {
		return LockDigest{}, fmt.Errorf("lock chaos %s seed=%d: %d workers failed", cfg.Lock, cfg.Seed, root.ExitCode())
	}
	if want := uint64(cfg.Tasks * cfg.Ops); counter != want {
		return LockDigest{}, fmt.Errorf("lock chaos %s seed=%d: counter=%d want %d — mutual exclusion violated under faults",
			cfg.Lock, cfg.Seed, counter, want)
	}
	st := k.FutexStats()
	if st.Claimed != st.Delivered+st.Lost {
		return LockDigest{}, fmt.Errorf("lock chaos %s seed=%d: futex claims not conserved: %+v", cfg.Lock, cfg.Seed, st)
	}
	return LockDigest{
		EndTime:    e.Now(),
		Counter:    counter,
		Syscalls:   k.Syscalls(),
		CtxSwitch:  k.ContextSwitches(),
		Injections: pl.Finish().Injections,
		Futex:      st,
	}, nil
}
