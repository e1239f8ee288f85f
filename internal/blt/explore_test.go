package blt_test

// Adversarial-interleaving tests for the two Table I synchronization
// points, driven through the schedule explorer: every explored schedule
// must preserve the paper's system-call consistency property (a coupled
// ULP's getpid observes the owner KC's PID) and the UC lifecycle
// invariants (no lost UC, no double-run, clean statuses). The tests live
// in package blt_test because internal/explore imports internal/core,
// which imports this package.

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/arch"
	"repro/internal/blt"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/fault"
	"repro/internal/kernel"
	"repro/internal/loader"
	"repro/internal/planes"
	"repro/internal/probe"
	"repro/internal/sim"
)

// exploreHorizon bounds each explored run in virtual time so an
// adversarial schedule that livelocks or deadlocks the coupling protocol
// surfaces as a failing run instead of a hung test.
const exploreHorizon = sim.Time(0) + sim.Time(sim.Second)

func drainTo(e *sim.Engine, what string) error {
	if err := e.RunUntil(exploreHorizon); err != nil {
		return err
	}
	if n := e.PendingEvents(); n > 0 {
		return fmt.Errorf("%s: livelock: %d events still pending at %v", what, n, exploreHorizon)
	}
	if n := e.LiveProcs(); n > 0 {
		return fmt.Errorf("%s: deadlock: %d procs parked with no pending events", what, n)
	}
	return nil
}

func exploreImg(name string, main loader.MainFunc) *loader.Image {
	return &loader.Image{
		Name: name, PIE: true, TextSize: 4096,
		Symbols: []loader.Symbol{
			{Name: "data", Size: 64},
			{Name: "errno", Size: 8, TLS: true},
		},
		Main: main,
	}
}

// decoupleVsStealScenario exercises sync point 2 (decouple hands the UC
// back to a scheduler) against work stealing: three ULPs pinned to
// scheduler 0 churn through couple/decouple while scheduler 1 sits idle
// and steals. On every explored schedule each rank's coupled getpid must
// see its owner KC, the audited syscalls must stay consistent, and every
// UC must run to completion exactly once (exact per-rank statuses).
func decoupleVsStealScenario() explore.Scenario {
	const ranks = 3
	return explore.Scenario{
		Name:    "decouple-vs-steal",
		Machine: arch.Wallaby,
		Run: func(k *kernel.Kernel, _ planes.Planes) error {
			e := k.Engine()
			img := exploreImg("dvs", func(envI interface{}) int {
				env := envI.(*core.Env)
				rank := env.U.Rank
				kcPID := env.U.KC().TGID()
				env.Decouple()
				for i := 0; i < 4; i++ {
					if err := env.Couple(); err != nil {
						return 80 + rank
					}
					if env.Getpid() != kcPID { // sync point 1
						return 90 + rank
					}
					env.Decouple()
					if env.Getpid() != kcPID { // sync point 2
						return 95 + rank
					}
					env.Compute(sim.Duration(1+rank) * sim.Microsecond)
					env.Yield()
				}
				return 40 + rank
			})
			var statuses []int
			var waitErr error
			violations := 0
			_, bootErr := core.Boot(k, core.Config{
				ProgCores:    []int{0, 1},
				SyscallCores: []int{2, 3},
				Idle:         blt.BusyWait,
				Audit:        true,
				WorkStealing: true,
			}, func(rt *core.Runtime) int {
				defer rt.Shutdown()
				for i := 0; i < ranks; i++ {
					// All ranks pinned to scheduler 0: scheduler 1 only
					// ever runs stolen UCs.
					if _, err := rt.Spawn(img, core.SpawnOpts{Name: fmt.Sprintf("dvs.%d", i), Scheduler: 0}); err != nil {
						waitErr = err
						return 1
					}
				}
				statuses, waitErr = rt.WaitAll()
				violations = len(rt.Violations())
				return 0
			})
			if bootErr != nil {
				return bootErr
			}
			if err := drainTo(e, "decouple-vs-steal"); err != nil {
				return err
			}
			if waitErr != nil {
				return fmt.Errorf("decouple-vs-steal: WaitAll: %v", waitErr)
			}
			if len(statuses) != ranks {
				return fmt.Errorf("decouple-vs-steal: %d statuses for %d ULPs (lost UC)", len(statuses), ranks)
			}
			for i, s := range statuses {
				if s != 40+i {
					return fmt.Errorf("decouple-vs-steal: rank %d exit %d, want %d", i, s, 40+i)
				}
			}
			if violations != 0 {
				return fmt.Errorf("decouple-vs-steal: %d syscall-consistency violations", violations)
			}
			return explore.CheckFutexConservation(k)
		},
	}
}

func TestExploreDecoupleVsSteal(t *testing.T) {
	s := decoupleVsStealScenario()
	res := explore.Explore(s, explore.Config{Policy: explore.DFS, Depth: 3})
	if res.Failure != nil {
		t.Fatalf("DFS found a schedule violating syscall consistency:\n  trace: %s\n  %s",
			explore.TraceString(res.Failure.Trace), res.Failure.Err)
	}
	if !res.Complete {
		t.Error("bounded DFS did not exhaust the depth-3 prefix space")
	}
	res = explore.Explore(s, explore.Config{Policy: explore.RandomWalk, Runs: 8, Seed: 0xdecaf})
	if res.Failure != nil {
		t.Fatalf("random walk (seed %d) violated syscall consistency: %s", res.Failure.Seed, res.Failure.Err)
	}
	if res.Decisions == 0 {
		t.Error("no scheduling decision points — scenario exercises nothing")
	}
}

// coupleVsHostDeathScenario exercises sync point 1 (couple moves the UC
// onto its owner KC) against the host dying at the worst possible
// moment: a fault kills kc.victim on its first kill site, racing the
// victim's couple/decouple churn. Whatever the interleaving, the victim
// must either finish cleanly (40), observe ErrHostDead and bail (70), or
// be killed with the pool's kill status — never hang, never run a
// syscall on the wrong KC, and never take the bystander down with it.
func coupleVsHostDeathScenario() explore.Scenario {
	return explore.Scenario{
		Name:    "couple-vs-host-death",
		Machine: arch.Wallaby,
		Planes: planes.Options{Seed: 7, Faults: []fault.Spec{
			{Site: probe.SiteKCKill, Nth: 1, TaskPrefix: "kc.victim"},
		}},
		Run: func(k *kernel.Kernel, _ planes.Planes) error {
			e := k.Engine()
			prog := func(bystander bool) *loader.Image {
				name := "victim"
				if bystander {
					name = "bystander"
				}
				return exploreImg(name, func(envI interface{}) int {
					env := envI.(*core.Env)
					kcPID := env.U.KC().TGID()
					env.Decouple()
					for i := 0; i < 4; i++ {
						if err := env.Couple(); err != nil {
							if errors.Is(err, blt.ErrHostDead) {
								return 70
							}
							return 71
						}
						if env.Getpid() != kcPID {
							return 90
						}
						env.Decouple()
						env.Compute(2 * sim.Microsecond)
					}
					if bystander {
						return 41
					}
					return 40
				})
			}
			var statuses []int
			var waitErr error
			violations := 0
			_, bootErr := core.Boot(k, core.Config{
				ProgCores:    []int{0, 1},
				SyscallCores: []int{2, 3},
				Idle:         blt.Blocking,
				Audit:        true,
			}, func(rt *core.Runtime) int {
				defer rt.Shutdown()
				if _, err := rt.Spawn(prog(false), core.SpawnOpts{Name: "victim", Scheduler: 0}); err != nil {
					waitErr = err
					return 1
				}
				if _, err := rt.Spawn(prog(true), core.SpawnOpts{Name: "bystander", Scheduler: 1}); err != nil {
					waitErr = err
					return 1
				}
				statuses, waitErr = rt.WaitAll()
				violations = len(rt.Violations())
				return 0
			})
			if bootErr != nil {
				return bootErr
			}
			if err := drainTo(e, "couple-vs-host-death"); err != nil {
				return err
			}
			if waitErr != nil {
				return fmt.Errorf("couple-vs-host-death: WaitAll: %v", waitErr)
			}
			if len(statuses) != 2 {
				return fmt.Errorf("couple-vs-host-death: %d statuses, want 2", len(statuses))
			}
			switch statuses[0] {
			case 40, 70, blt.KilledExitStatus:
			default:
				return fmt.Errorf("couple-vs-host-death: victim exit %d, want 40, 70 or %d", statuses[0], blt.KilledExitStatus)
			}
			if statuses[1] != 41 {
				return fmt.Errorf("couple-vs-host-death: bystander exit %d, want 41 (collateral damage)", statuses[1])
			}
			if violations != 0 {
				return fmt.Errorf("couple-vs-host-death: %d syscall-consistency violations", violations)
			}
			// Weak futex oracle only: a mid-sleep kill legitimately leaves
			// the strict sleep ledger unbalanced.
			return explore.CheckFutexClaims(k)
		},
	}
}

func TestExploreCoupleVsHostDeath(t *testing.T) {
	s := coupleVsHostDeathScenario()
	res := explore.Explore(s, explore.Config{Policy: explore.DFS, Depth: 3})
	if res.Failure != nil {
		t.Fatalf("DFS found a schedule mishandling host death:\n  trace: %s\n  %s",
			explore.TraceString(res.Failure.Trace), res.Failure.Err)
	}
	if !res.Complete {
		t.Error("bounded DFS did not exhaust the depth-3 prefix space")
	}
	res = explore.Explore(s, explore.Config{Policy: explore.RandomWalk, Runs: 8, Seed: 0xdead})
	if res.Failure != nil {
		t.Fatalf("random walk (seed %d) mishandled host death: %s", res.Failure.Seed, res.Failure.Err)
	}
}
