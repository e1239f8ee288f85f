package explore

import (
	"fmt"
	"strings"

	"repro/internal/arch"
	"repro/internal/kernel"
	"repro/internal/planes"
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
// algorithm: sync.Hammer with lockTasks tasks on lockCores cores, while
// the chooser perturbs every scheduling decision. Oracles, per explored
// schedule: the hammer's counter is exact (mutual exclusion under every
// interleaving), the fairness discipline holds —
// strict handoff-in-queueing-order for the FIFO algorithms (ticket,
// MCS, CLH), and for the unfair ones no waiter that reached the
// queueing point is ever passed over unboundedly or left unserved —
// and the futex ledger is conserved at quiescence.
func LockScenario(mk func() *arch.Machine, algo string) Scenario {
	return Scenario{
		Name:    "lock-" + algo,
		Machine: mk,
		Run: func(k *kernel.Kernel, _ planes.Planes) error {
			var fair usync.Fairness
			var runErr error
			root := k.NewTask("lock-root", k.NewAddressSpace(), func(rt *kernel.Task) int {
				l, err := usync.New(rt, algo, usync.Config{})
				if err == nil {
					l.SetFairness(&fair)
					err = usync.Hammer(rt, l, lockTasks, lockCores, lockOps)
				}
				runErr = err
				return 0
			})
			k.Start(root, 0)
			if err := drain(k.Engine(), "lock-"+algo); err != nil {
				return err
			}
			if runErr != nil {
				return fmt.Errorf("lock-%s: %v", algo, runErr)
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
