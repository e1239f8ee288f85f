package sync_test

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/kernel"
	"repro/internal/probe"
	"repro/internal/sim"
	usync "repro/internal/sync"
)

// TestMutexRecoversLostUnlockWakeAfterLongHold: root holds the futex
// mutex for 100 ms while a waiter on another core sleeps on it, and the
// unlock's one wake is dropped. The waiter's recovery sleeps, capped at
// 2 ms, must keep timing out until one finds the lock free. A timeout
// that overflowed into an untimed sleep would strand the waiter, and
// Run would report a deadlock.
func TestMutexRecoversLostUnlockWakeAfterLongHold(t *testing.T) {
	e, k := newKernel(t)
	fault.NewPlane(1, []fault.Spec{{Site: probe.SiteFutexLostWake, Nth: 1}}).Attach(k.Probes())
	const hold = 100 * sim.Millisecond
	var acquired sim.Time
	root := k.NewTask("root", k.NewAddressSpace(), func(rt *kernel.Task) int {
		m, err := usync.NewMutex(rt, usync.Config{})
		if err != nil {
			t.Errorf("NewMutex: %v", err)
			return 1
		}
		m.Lock(rt)
		w := rt.ClonePinned("waiter", kernel.PThreadFlags, 1, func(t *kernel.Task) int {
			m.Lock(t)
			acquired = e.Now()
			m.Unlock(t)
			return 0
		})
		rt.Nanosleep(hold)
		m.Unlock(rt)
		rt.Join(w)
		return 0
	})
	k.Start(root, 0)
	if err := e.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	st := k.FutexStats()
	t.Logf("waiter acquired at %v after %d timeouts", acquired, st.Timeouts)
	if st.Lost != 1 {
		t.Fatalf("lost wakes = %d, want 1 (the unlock's)", st.Lost)
	}
	// Past 2 ms the waiter re-checks every 2 ms, so it finds the lock
	// free within one capped sleep of the unlock.
	if end := sim.Time(0).Add(hold + 2*sim.Millisecond + 100*sim.Microsecond); acquired < sim.Time(0).Add(hold) || acquired > end {
		t.Errorf("waiter acquired at %v, want in [%v, %v]", acquired, hold, end)
	}
	if st.Timeouts < 40 {
		t.Errorf("timeouts = %d, want the waiter to time out through the whole hold", st.Timeouts)
	}
}
