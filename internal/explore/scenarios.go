package explore

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/blt"
	"repro/internal/core"
	"repro/internal/fs"
	"repro/internal/kernel"
	"repro/internal/planes"
	"repro/internal/sim"
	"repro/internal/timeline"
)

// horizon bounds each explored run in virtual time: an adversarial
// schedule that livelocks the protocol (busy-waiting schedulers keep
// virtual time advancing forever) must surface as a failing run, not a
// hung explorer. Fault-free runs of every scenario finish in well under
// a virtual second.
const horizon = sim.Time(0) + sim.Time(sim.Second)

// drain runs the engine to quiescence under the horizon, converting
// livelock (events still pending at the horizon) and deadlock (procs
// parked with nothing scheduled) into oracle failures.
func drain(e *sim.Engine, what string) error {
	if err := e.RunUntil(horizon); err != nil {
		return err // trapped proc panic
	}
	if n := e.PendingEvents(); n > 0 {
		return fmt.Errorf("%s: livelock: %d events still pending at virtual horizon %v", what, n, horizon)
	}
	if n := e.LiveProcs(); n > 0 {
		return fmt.Errorf("%s: deadlock: %d procs parked with no pending events", what, n)
	}
	return nil
}

// ScenarioNames lists the scenarios ByName accepts.
func ScenarioNames() []string {
	return append([]string{"pingpong", "blt-nn", "blt-mn", "deadlock"}, lockScenarioNames()...)
}

// ByName builds the named exploration scenario. mk constructs a fresh
// machine per run (scenarios must share no state between runs); idle
// applies to the BLT scenarios only.
func ByName(name string, mk func() *arch.Machine, idle blt.IdlePolicy) (Scenario, error) {
	switch name {
	case "pingpong":
		return PingPong(mk, 4), nil
	case "blt-nn":
		return BLT(mk, idle, false), nil
	case "blt-mn":
		return BLT(mk, idle, true), nil
	case "deadlock":
		return DeadlockScenario(mk), nil
	}
	if s, ok := lockByName(name, mk); ok {
		return s, nil
	}
	return Scenario{}, fmt.Errorf("explore: unknown scenario %q (want one of %v)", name, ScenarioNames())
}

// PingPong is the futex stress scenario: two threads hand a baton back
// and forth through a pair of semaphores for the given number of
// rounds, while a third thread sleeps in a timed futex wait on a word
// nobody ever posts (it must time out — never hang, never wake
// normally). Oracles: exact handoff count, the timed waiter's
// ErrTimedOut, futex conservation, timeline conservation.
func PingPong(mk func() *arch.Machine, rounds int) Scenario {
	return Scenario{
		Name:    "pingpong",
		Machine: mk,
		Run: func(k *kernel.Kernel, _ planes.Planes) error {
			e := k.Engine()
			tl := timeline.New()
			tl.Attach(k.Probes())
			handoffs := 0
			var timedErr error
			root := k.NewTask("pingpong-root", k.NewAddressSpace(), func(t *kernel.Task) int {
				semA, err := t.NewSemaphore(1)
				if err != nil {
					return 1
				}
				semB, err := t.NewSemaphore(0)
				if err != nil {
					return 1
				}
				dead, err := t.NewSemaphore(0)
				if err != nil {
					return 1
				}
				relay := func(in, out *kernel.Semaphore) func(*kernel.Task) int {
					return func(t *kernel.Task) int {
						for i := 0; i < rounds; i++ {
							if err := in.Wait(t); err != nil {
								return 1
							}
							t.Compute(2 * sim.Microsecond)
							handoffs++
							if err := out.Post(t); err != nil {
								return 1
							}
						}
						return 0
					}
				}
				ping := t.Clone("ping", kernel.PThreadFlags, relay(semA, semB))
				pong := t.Clone("pong", kernel.PThreadFlags, relay(semB, semA))
				timed := t.Clone("timed", kernel.PThreadFlags, func(t *kernel.Task) int {
					timedErr = t.FutexWaitTimeout(dead.Addr(), 0, 150*sim.Microsecond)
					return 0
				})
				if t.Join(ping)+t.Join(pong)+t.Join(timed) != 0 {
					return 1
				}
				return 0
			})
			k.Start(root, 0)
			if err := drain(e, "pingpong"); err != nil {
				return err
			}
			if !root.Exited() || root.ExitCode() != 0 {
				return fmt.Errorf("pingpong: root exit %d (exited=%v)", root.ExitCode(), root.Exited())
			}
			if want := 2 * rounds; handoffs != want {
				return fmt.Errorf("pingpong: %d handoffs, want %d", handoffs, want)
			}
			if timedErr != kernel.ErrTimedOut {
				return fmt.Errorf("pingpong: timed waiter returned %v, want ErrTimedOut", timedErr)
			}
			if err := CheckFutexConservation(k); err != nil {
				return err
			}
			return CheckTimelineConservation(k, tl)
		},
	}
}

// DeadlockScenario hand-builds the classic ABBA futex deadlock and
// asserts the supervision plane's watchdog catches it: two threads each
// sleep on a futex word holding the *other* thread's PID (the
// FUTEX_LOCK_PI owner convention the wait-for graph understands), so
// the graph contains the two-task cycle A→B→A with the joining root
// hanging off it. The run is EXPECTED to park forever — the oracle is
// that the watchdog flagged the stalls and recorded exactly that cycle
// before the engine drained into deadlock.
func DeadlockScenario(mk func() *arch.Machine) Scenario {
	return Scenario{
		Name:    "deadlock",
		Machine: mk,
		Planes:  planes.Options{Supervise: true, StallHorizon: 200 * sim.Microsecond},
		Run: func(k *kernel.Kernel, p planes.Planes) error {
			e := k.Engine()
			sup := p.Sup
			var aPID, bPID int
			root := k.NewTask("dl-root", k.NewAddressSpace(), func(t *kernel.Task) int {
				wordA, err := t.Mmap(8, true)
				if err != nil {
					return 1
				}
				wordB, err := t.Mmap(8, true)
				if err != nil {
					return 1
				}
				start, err := t.Mmap(8, true)
				if err != nil {
					return 1
				}
				locker := func(word uint64) func(*kernel.Task) int {
					return func(t *kernel.Task) int {
						// Gate until the owner PIDs are published; the
						// post-write start=1 makes a late arrival fall
						// through with ErrFutexAgain instead of missing
						// the wake.
						switch t.FutexWait(start, 0) {
						case nil, kernel.ErrFutexAgain, kernel.ErrInterrupted:
						default:
							return 1
						}
						v, err := t.Space().ReadU64(word, nil)
						if err != nil {
							return 1
						}
						for {
							// The word holds the owner's PID; the owner
							// never unlocks.
							switch t.FutexWait(word, v) {
							case nil, kernel.ErrFutexAgain, kernel.ErrInterrupted:
							default:
								return 1
							}
						}
					}
				}
				a := t.Clone("dl-a", kernel.PThreadFlags, locker(wordB))
				b := t.Clone("dl-b", kernel.PThreadFlags, locker(wordA))
				aPID, bPID = a.PID(), b.PID()
				t.Space().WriteU64(wordA, uint64(aPID), nil)
				t.Space().WriteU64(wordB, uint64(bPID), nil)
				t.Nanosleep(10 * sim.Microsecond) // let both park on the gate
				t.Space().WriteU64(start, 1, nil)
				t.FutexWake(start, 2) // release them in lockstep
				t.Join(a)
				t.Join(b)
				return 0
			})
			k.Start(root, 0)
			if err := drain(e, "deadlock"); err == nil {
				return fmt.Errorf("deadlock: run drained cleanly; the ABBA cycle never formed")
			}
			if sup.StallCount() == 0 {
				return fmt.Errorf("deadlock: tasks parked past the horizon but the watchdog flagged no stalls")
			}
			return CheckDeadlockDetected(sup, aPID, bPID)
		},
	}
}

// bltULPs is the rank count of the BLT scenarios.
const bltULPs = 4

// BLT is the Table I scenario: a booted ULP-PiP runtime (audit in
// collect mode) running bltULPs ranks through a fixed per-rank op mix —
// compute, user-level yields, couple/decouple churn with coupled-getpid
// probes at both sync points, and consistent open-write-close brackets.
// mn deploys the §VII M:N extension: the upper ranks share the lower
// ranks' original KCs and idle schedulers steal work. Oracles: per-rank
// exit statuses (a wrong status means a lost, double-run or corrupted
// UC), zero audited-syscall violations, zero coupled-getpid
// inconsistencies, no orphans, futex + timeline conservation.
func BLT(mk func() *arch.Machine, idle blt.IdlePolicy, mn bool) Scenario {
	name := "blt-nn"
	if mn {
		name = "blt-mn"
	}
	return Scenario{
		Name:    name,
		Machine: mk,
		Run: func(k *kernel.Kernel, _ planes.Planes) error {
			e := k.Engine()
			tl := timeline.New()
			tl.Attach(k.Probes())
			// Ranks hold at a start gate until every Spawn has returned:
			// the M:N sharers adopt the lower ranks' original KCs, and a
			// primary that exits before its sharer is adopted makes Spawn
			// fail with ErrHostDead (by design — the host-death check the
			// coupling TOCTOU fix added).
			released := false
			isReleased := func(*kernel.Task) bool { return released }
			img := core.Program("xplr", func(env *core.Env) int {
				env.Decouple()
				env.YieldUntil(isReleased)
				return exploreMain(env)
			})
			var statuses []int
			var waitErr error
			violations, orphans := 0, 0
			_, bootErr := core.Boot(k, core.Config{
				ProgCores:    []int{0, 1},
				SyscallCores: []int{2, 3},
				Idle:         idle,
				Audit:        true,
				WorkStealing: mn,
			}, func(rt *core.Runtime) int {
				// Shutdown unconditionally: an early return that leaves the
				// pool running strands busy-wait schedulers in a livelock.
				defer rt.Shutdown()
				ulps := make([]*core.ULP, 0, bltULPs)
				for i := 0; i < bltULPs; i++ {
					opts := core.SpawnOpts{Name: fmt.Sprintf("xplr.%d", i), Scheduler: -1}
					if mn && i >= bltULPs/2 {
						opts.ShareKCWith = ulps[i-bltULPs/2]
					}
					u, err := rt.Spawn(img, opts)
					if err != nil {
						waitErr = err
						return 1
					}
					ulps = append(ulps, u)
				}
				released = true
				statuses, waitErr = rt.WaitAll()
				violations = len(rt.Violations())
				for _, u := range ulps {
					if u.Orphaned() {
						orphans++
					}
				}
				return 0
			})
			if bootErr != nil {
				return bootErr
			}
			if err := drain(e, name); err != nil {
				return err
			}
			if waitErr != nil {
				return fmt.Errorf("%s: WaitAll: %v", name, waitErr)
			}
			if len(statuses) != bltULPs {
				return fmt.Errorf("%s: lost BLTs: %d statuses for %d ULPs", name, len(statuses), bltULPs)
			}
			for i, s := range statuses {
				if s != 40+i {
					return fmt.Errorf("%s: rank %d exit status %d, want %d (lost/double-run/inconsistent UC)", name, i, s, 40+i)
				}
			}
			if violations != 0 {
				return fmt.Errorf("%s: %d system-call consistency violations", name, violations)
			}
			if orphans != 0 {
				return fmt.Errorf("%s: %d orphaned ULPs without fault injection", name, orphans)
			}
			if err := CheckFutexConservation(k); err != nil {
				return err
			}
			return CheckTimelineConservation(k, tl)
		},
	}
}

// exploreMain is the per-rank program of the BLT scenarios. The op mix
// is a pure function of the rank (no RNG: the schedule explorer is the
// only source of variation). The coupled-getpid probes assert the
// paper's consistency property at both Table I sync points: right
// after couple() returns (sync point 1) and immediately after
// decouple() hands the UC back to the scheduler (sync point 2), a
// consistent getpid must still observe the owner KC's PID.
func exploreMain(env *core.Env) int {
	rank := env.Rank
	kcPID := env.KC().TGID()
	buf := []byte("explore-op-payload")
	for i := 0; i < 6; i++ {
		switch (rank + i) % 4 {
		case 0:
			env.Compute(sim.Duration(1+rank) * sim.Microsecond)
		case 1:
			env.Yield()
		case 2:
			if err := env.Couple(); err != nil {
				return 80 + rank
			}
			if pid := env.Getpid(); pid != kcPID {
				return 90 + rank
			}
			env.Decouple()
			if pid := env.Getpid(); pid != kcPID {
				return 95 + rank
			}
		case 3:
			fd, err := env.Open(fmt.Sprintf("/xplr.%d", rank), fs.OCreate|fs.OWrOnly)
			if err == nil {
				env.Write(fd, buf)
				env.Close(fd)
			}
		}
	}
	return 40 + rank
}
