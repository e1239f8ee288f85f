package sync

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/sim"
)

// Hammer is the lab's contention workload, run by root: threads threads,
// pinned round-robin onto cores 0..cores-1, each take l ops times. Under
// the lock a thread reads a counter in shared memory, computes for
// 300 ns and writes the counter back incremented, so two holders at
// once lose an increment; outside it the thread computes for 100 ns.
// Hammer joins every thread and fails unless each exited 0 and the
// counter reads threads*ops.
func Hammer(root *kernel.Task, l Lock, threads, cores, ops int) error {
	ctr, err := root.Mmap(8, true)
	if err != nil {
		return err
	}
	space := root.Space()
	kids := make([]*kernel.Task, threads)
	for i := range kids {
		kids[i] = root.ClonePinned(fmt.Sprintf("lk%d", i), kernel.PThreadFlags, i%cores,
			func(t *kernel.Task) int {
				for op := 0; op < ops; op++ {
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
		if root.Join(kid) != 0 {
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d threads exited non-zero", bad, threads)
	}
	if got, _ := space.ReadU64(ctr, nil); got != uint64(threads*ops) {
		return fmt.Errorf("counter=%d want %d — mutual exclusion violated", got, threads*ops)
	}
	return nil
}
