package kernel

// Regression tests for the FutexRequeue wake half: its wake slots must
// be claimed through the same per-waiter helper as FutexWake, so the
// futex_lost_wake fault site applies to requeue wakes and the
// Claimed/Delivered/Lost ledger can diverge. Before the fix the wake
// half called makeRunnable directly — Claimed == Delivered was forced
// and requeue wakes were invisible to chaos.

import (
	"errors"
	"testing"

	"repro/internal/sim"
)

// TestFutexRequeueWakeHalfRunsLostWakeSite queues three waiters on one
// word and requeues with every wake destined for the head waiter
// dropped: the claimed slot must be spent (the caller is deceived), the
// doomed waiter must stay on the source queue and become eligible for
// the move half, and the ledger must record the loss.
func TestFutexRequeueWakeHalfRunsLostWakeSite(t *testing.T) {
	e, k := newKernel()
	var src uint64
	// Eat only wakes aimed at "doomed" on the source word; the drain
	// wakes on the destination word must go through.
	dropWakes(k, func(w *Task, a uint64) bool { return w.Name() == "doomed" && a == src })
	space := k.NewAddressSpace()
	a, err := space.Mmap(8, semProt, "rq-src", true, nil)
	if err != nil {
		t.Fatal(err)
	}
	src = a
	b, err := space.Mmap(8, semProt, "rq-dst", true, nil)
	if err != nil {
		t.Fatal(err)
	}
	sleeper := func(name string, after sim.Duration, got *error) *Task {
		tk := k.NewTask(name, space, func(task *Task) int {
			task.Nanosleep(after)
			*got = task.FutexWait(a, 0)
			return 0
		})
		k.Start(tk, 0)
		return tk
	}
	var doomedErr, luckyErr, moverErr error
	doomed := sleeper("doomed", 0, &doomedErr)
	sleeper("lucky", 2*sim.Microsecond, &luckyErr)
	sleeper("mover", 4*sim.Microsecond, &moverErr)
	ret := -1
	var rqErr error
	waker := k.NewTask("waker", space, func(task *Task) int {
		task.Nanosleep(10 * sim.Microsecond) // all three parked, FIFO: doomed, lucky, mover
		ret, rqErr = task.FutexRequeue(a, 0, 2, 1, b)
		// Post-requeue shape: doomed's wake was eaten (slot claimed, still
		// queued), lucky woke, so the move half transfers doomed onto b and
		// mover stays on a. Drain both words.
		if k.FutexWaiters(space.ID, a) != 1 || k.FutexWaiters(space.ID, b) != 1 {
			return 1
		}
		if doomed.State() != TaskBlocked {
			return 2
		}
		task.FutexWake(a, 8)
		task.FutexWake(b, 8)
		return 0
	})
	k.Start(waker, 0)
	if err := e.Run(); err != nil {
		t.Fatalf("engine: %v", err)
	}
	if rqErr != nil {
		t.Fatalf("FutexRequeue: %v", rqErr)
	}
	if !waker.Exited() || waker.ExitCode() != 0 {
		t.Errorf("waker exit %d: post-requeue queue shape wrong (doomed not left queued / not moved)", waker.ExitCode())
	}
	// Two slots claimed (one eaten, one delivered) plus one waiter moved.
	if ret != 3 {
		t.Errorf("FutexRequeue returned %d, want 3 (2 claimed + 1 moved)", ret)
	}
	for name, err := range map[string]error{"doomed": doomedErr, "lucky": luckyErr, "mover": moverErr} {
		if err != nil {
			t.Errorf("%s: FutexWait returned %v, want nil", name, err)
		}
	}
	st := k.FutexStats()
	// The heart of the regression: requeue wakes feed the fault site, so
	// the ledger diverges — before the fix Claimed == Delivered was
	// structural on this path and Lost stayed 0.
	if st.Lost != 1 {
		t.Errorf("ledger lost=%d, want 1 (requeue wake not routed through the lost-wake site)", st.Lost)
	}
	if st.Claimed != st.Delivered+st.Lost {
		t.Errorf("claims not conserved: claimed=%d delivered=%d lost=%d", st.Claimed, st.Delivered, st.Lost)
	}
	if st.Requeued != 1 {
		t.Errorf("ledger requeued=%d, want 1", st.Requeued)
	}
	if st.Blocked != st.Resumed+st.Timeouts+st.Interrupted {
		t.Errorf("sleeps not conserved: %+v", st)
	}
	if n := k.ResidualFutexWaiters(); n != 0 {
		t.Errorf("%d residual futex waiters", n)
	}
	if n := k.FutexTableSize(); n != 0 {
		t.Errorf("futex table retains %d entries", n)
	}
}

// TestFutexRequeueMovedSleeperKeepsTimeout pins the documented timer
// contract across the new move path: a timed waiter that is requeued
// (not woken) onto another word still times out there, and the timeout
// is charged to the ledger exactly once.
func TestFutexRequeueMovedSleeperKeepsTimeout(t *testing.T) {
	e, k := newKernel()
	space := k.NewAddressSpace()
	a, err := space.Mmap(8, semProt, "rq-src", true, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := space.Mmap(8, semProt, "rq-dst", true, nil)
	if err != nil {
		t.Fatal(err)
	}
	var waitErr error
	waiter := k.NewTask("timed", space, func(task *Task) int {
		waitErr = task.FutexWaitTimeout(a, 0, 100*sim.Microsecond)
		return 0
	})
	mover := k.NewTask("mover", space, func(task *Task) int {
		task.Nanosleep(10 * sim.Microsecond)
		n, err := task.FutexRequeue(a, 0, 0, 1, b)
		if err != nil || n != 1 {
			return 1
		}
		return 0
	})
	k.Start(waiter, 0)
	k.Start(mover, 0)
	if err := e.Run(); err != nil {
		t.Fatalf("engine: %v", err)
	}
	if !errors.Is(waitErr, ErrTimedOut) {
		t.Errorf("moved timed waiter returned %v, want ErrTimedOut", waitErr)
	}
	st := k.FutexStats()
	if st.Timeouts != 1 || st.Requeued != 1 {
		t.Errorf("ledger timeouts=%d requeued=%d, want 1/1", st.Timeouts, st.Requeued)
	}
	if n := k.FutexTableSize(); n != 0 {
		t.Errorf("futex table retains %d entries", n)
	}
}
