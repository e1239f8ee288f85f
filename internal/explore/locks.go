package explore

import (
	"fmt"
	"strings"

	"repro/internal/arch"
	"repro/internal/kernel"
	"repro/internal/planes"
	"repro/internal/sim"
	usync "repro/internal/sync"
)

// Lock-scenario shape: small enough for DFS to bite, oversubscribed
// enough that the chooser can reorder handoffs.
const (
	lockTasks = 3
	lockOps   = 4
	lockCores = 2
)

// LockScenario is the contention-lab exploration scenario for one lock
// algorithm: lockTasks tasks on lockCores cores hammer a racy counter
// under the lock while the chooser perturbs every scheduling decision.
// Oracles, per explored schedule: the counter is exact (mutual
// exclusion under every interleaving), the fairness discipline holds —
// strict handoff-in-queueing-order for the FIFO algorithms (ticket,
// MCS, CLH), and for the unfair ones no waiter that reached the
// queueing point is ever passed over unboundedly or left unserved —
// and the futex ledger is conserved at quiescence.
func LockScenario(mk func() *arch.Machine, algo string) Scenario {
	return Scenario{
		Name:    "lock-" + algo,
		Machine: mk,
		Run: func(k *kernel.Kernel, _ planes.Planes) error {
			e := k.Engine()
			var fair usync.Fairness
			var counter uint64
			var mkErr error
			root := k.NewTask("lock-root", k.NewAddressSpace(), func(rt *kernel.Task) int {
				l, err := usync.New(rt, algo, usync.Config{})
				if err != nil {
					mkErr = err
					return 1
				}
				l.SetFairness(&fair)
				ctr, err := rt.Mmap(8, true)
				if err != nil {
					mkErr = err
					return 1
				}
				space := rt.Space()
				kids := make([]*kernel.Task, lockTasks)
				for i := range kids {
					kids[i] = rt.ClonePinned(fmt.Sprintf("lk%d", i), kernel.PThreadFlags, i%lockCores,
						func(t *kernel.Task) int {
							for op := 0; op < lockOps; op++ {
								l.Lock(t)
								v, _ := space.ReadU64(ctr, nil)
								t.Compute(300 * sim.Nanosecond)
								space.WriteU64(ctr, v+1, nil)
								l.Unlock(t)
								t.Compute(100 * sim.Nanosecond)
							}
							return 0
						})
				}
				bad := 0
				for _, kid := range kids {
					if rt.Join(kid) != 0 {
						bad++
					}
				}
				counter, _ = space.ReadU64(ctr, nil)
				return bad
			})
			k.Start(root, 0)
			if err := drain(e, "lock-"+algo); err != nil {
				return err
			}
			if mkErr != nil {
				return mkErr
			}
			if !root.Exited() || root.ExitCode() != 0 {
				return fmt.Errorf("lock-%s: root exit %d (exited=%v)", algo, root.ExitCode(), root.Exited())
			}
			if want := uint64(lockTasks * lockOps); counter != want {
				return fmt.Errorf("lock-%s: counter=%d want %d — mutual exclusion violated", algo, counter, want)
			}
			if got, want := fair.Acquisitions(), lockTasks*lockOps; got != want {
				return fmt.Errorf("lock-%s: %d recorded acquisitions, want %d", algo, got, want)
			}
			// Unfair locks get a bound of total acquisitions: with every
			// arrival required to acquire (starvation check) and the drain
			// horizon bounding livelock, the bound only needs to be finite.
			if err := fair.Check(usync.FIFO(algo), lockTasks*lockOps); err != nil {
				return fmt.Errorf("lock-%s: %v", algo, err)
			}
			return CheckFutexConservation(k)
		},
	}
}

// lockScenarioNames lists the per-algorithm lock scenarios.
func lockScenarioNames() []string {
	names := make([]string, 0, len(usync.Names()))
	for _, algo := range usync.Names() {
		names = append(names, "lock-"+algo)
	}
	return names
}

// lockByName resolves a "lock-<algo>" scenario name, or ok=false.
func lockByName(name string, mk func() *arch.Machine) (Scenario, bool) {
	algo, found := strings.CutPrefix(name, "lock-")
	if !found {
		return Scenario{}, false
	}
	for _, known := range usync.Names() {
		if algo == known {
			return LockScenario(mk, algo), true
		}
	}
	return Scenario{}, false
}
