package kernel

// Regression tests for the futex fault loop and the stale-timeout
// guard, driven through a stub fault:site program (the seeded plane
// lives in internal/fault, which imports this package).

import (
	"errors"
	"math"
	"testing"

	"repro/internal/metrics"
	"repro/internal/probe"
	"repro/internal/sim"
)

// dropWakes attaches a fault:site program that only drops futex wakes:
// those whose waiter and word satisfy drop.
func dropWakes(k *Kernel, drop func(waiter *Task, addr uint64) bool) {
	k.Probes().Attach("drop-wakes", func(c *probe.Ctx) probe.Verdict {
		if c.Site != "futex_lost_wake" {
			return probe.Verdict{}
		}
		return probe.Verdict{Drop: drop(c.Waiter.(*Task), c.Addr)}
	}, probe.PFaultSite)
}

// TestFutexWakeLostWakeAdvancesPastDoomedWaiter is the regression test
// for the lost-wake fault loop: with two waiters queued and every wake
// destined for the head waiter dropped, FutexWake(addr, 2) must spend
// one slot on the doomed head and deliver the other to the next waiter
// — not let the head absorb both slots and starve the queue.
func TestFutexWakeLostWakeAdvancesPastDoomedWaiter(t *testing.T) {
	e, k := newKernel()
	reg := metrics.NewRegistry()
	k.SetMetrics(reg)
	dropWakes(k, func(w *Task, _ uint64) bool { return w.Name() == "doomed" })
	space := k.NewAddressSpace()
	a, err := space.Mmap(8, semProt, "futex", true, nil)
	if err != nil {
		t.Fatal(err)
	}
	var doomedErr, luckyErr error
	claimed := -1
	doomed := k.NewTask("doomed", space, func(task *Task) int {
		// The timeout is the doomed waiter's only way out: its wake is
		// eaten by the fault.
		doomedErr = task.FutexWaitTimeout(a, 0, 200*sim.Microsecond)
		return 0
	})
	lucky := k.NewTask("lucky", space, func(task *Task) int {
		task.Nanosleep(2 * sim.Microsecond) // queue behind doomed
		luckyErr = task.FutexWait(a, 0)
		return 0
	})
	waker := k.NewTask("waker", space, func(task *Task) int {
		task.Nanosleep(10 * sim.Microsecond) // both waiters asleep by now
		claimed = task.FutexWake(a, 2)
		return 0
	})
	doomed.SetAffinity(0)
	lucky.SetAffinity(1)
	waker.SetAffinity(2)
	k.Start(doomed, 0)
	k.Start(lucky, 0)
	k.Start(waker, 0)
	if err := e.Run(); err != nil {
		t.Fatalf("engine: %v", err)
	}
	// Return value counts claimed slots (delivered + lost), documented
	// FutexWake semantics.
	if claimed != 2 {
		t.Errorf("FutexWake returned %d, want 2 (1 delivered + 1 lost)", claimed)
	}
	if luckyErr != nil {
		t.Errorf("lucky waiter: %v, want woken normally (was starved before the fix)", luckyErr)
	}
	if !errors.Is(doomedErr, ErrTimedOut) {
		t.Errorf("doomed waiter: %v, want ErrTimedOut", doomedErr)
	}
	st := k.FutexStats()
	if st.Claimed != 2 || st.Delivered != 1 || st.Lost != 1 {
		t.Errorf("ledger claimed=%d delivered=%d lost=%d, want 2/1/1", st.Claimed, st.Delivered, st.Lost)
	}
	if st.Blocked != st.Resumed+st.Timeouts+st.Interrupted {
		t.Errorf("sleeps not conserved: %+v", st)
	}
	// The woken metric counts deliveries only; lost wakes go to lost.
	snap := map[string]float64{}
	for _, s := range reg.Snapshot() {
		snap[s.Name] = s.Value
	}
	if snap["kernel.futex.woken"] != 1 || snap["kernel.futex.lost_wakes"] != 1 {
		t.Errorf("metrics woken=%v lost=%v, want 1/1",
			snap["kernel.futex.woken"], snap["kernel.futex.lost_wakes"])
	}
	if n := k.ResidualFutexWaiters(); n != 0 {
		t.Errorf("%d residual futex waiters", n)
	}
}

// TestFutexStaleTimerDoesNotFireOnReArmedWait is the regression test
// for the timeout guard: a task whose timed wait is woken normally and
// which then re-blocks on the very same word through a different wait
// path (Semaphore.Wait) must not be woken by the first wait's stale
// timer.
func TestFutexStaleTimerDoesNotFireOnReArmedWait(t *testing.T) {
	e, k := newKernel()
	space := k.NewAddressSpace()
	a, err := space.Mmap(8, semProt, "futex", true, nil)
	if err != nil {
		t.Fatal(err)
	}
	sem := &Semaphore{addr: a} // same word, different wait path
	var firstErr, semErr error
	var semReturned sim.Time
	waiter := k.NewTask("waiter", space, func(task *Task) int {
		// Timed wait #1: woken normally at ~10us, timer armed for 50us.
		firstErr = task.FutexWaitTimeout(a, 0, 50*sim.Microsecond)
		// Immediately re-block on the same queue; the stale 50us timer
		// must not end this sleep (the post arrives at 300us).
		semErr = sem.Wait(task)
		semReturned = e.Now()
		return 0
	})
	waker := k.NewTask("waker", space, func(task *Task) int {
		task.Nanosleep(10 * sim.Microsecond)
		task.FutexWake(a, 1)
		task.Nanosleep(290 * sim.Microsecond)
		return sem.post(task)
	})
	waiter.SetAffinity(0)
	waker.SetAffinity(1)
	k.Start(waiter, 0)
	k.Start(waker, 0)
	if err := e.Run(); err != nil {
		t.Fatalf("engine: %v", err)
	}
	if firstErr != nil {
		t.Errorf("first wait: %v, want normal wake", firstErr)
	}
	if semErr != nil {
		t.Errorf("semaphore wait: %v (stale timer fired into the re-armed wait?)", semErr)
	}
	if min := sim.Time(0).Add(300 * sim.Microsecond); semReturned < min {
		t.Errorf("semaphore wait returned at %v, before the post at 300us — woken by the stale timer", semReturned)
	}
	st := k.FutexStats()
	if st.Timeouts != 0 {
		t.Errorf("ledger counts %d timeouts, want 0", st.Timeouts)
	}
	if st.Blocked != st.Resumed+st.Timeouts+st.Interrupted {
		t.Errorf("sleeps not conserved: %+v", st)
	}
}

// post is Semaphore.Post returning its error (helper keeping the test
// task body tidy).
func (s *Semaphore) post(t *Task) int {
	if err := s.Post(t); err != nil {
		return 1
	}
	return 0
}

// TestFaultIOScaleSaturates: fs_slow fires with Dur = the unscaled I/O
// cost and adds the Delay verdict to it, saturating at the longest
// duration instead of wrapping to a negative cost (which panicked the
// engine).
func TestFaultIOScaleSaturates(t *testing.T) {
	_, k := newKernel()
	var extra sim.Duration
	k.Probes().Attach("slow", func(c *probe.Ctx) probe.Verdict {
		if c.ID != probe.SiteFSSlow || c.Dur != 1000 {
			t.Errorf("fs_slow fired as %v with Dur %d, want fs_slow with the cost", c.ID, c.Dur)
		}
		return probe.Verdict{Delay: extra}
	}, probe.PFaultSite)
	task := k.NewTask("io", nil, func(*Task) int { return 0 })
	for _, c := range []struct {
		extra sim.Duration
		want  sim.Duration
	}{
		{3000, 4000},
		{0, 1000},
		{-5, 1000},
		{math.MaxInt64 - 1000, math.MaxInt64},
		{math.MaxInt64 - 999, math.MaxInt64},
		{math.MaxInt64, math.MaxInt64},
	} {
		extra = c.extra
		if got := k.faultIOScale(task, 1000); got != c.want {
			t.Errorf("delay %d: cost %d, want %d", c.extra, got, c.want)
		}
	}
}
