package kernel

// Audit test for the PR 6 pooled timer objects under fault injection:
// a waiter killed out of a timed futex wait (the kc_kill shape — SIGKILL
// interrupts the sleep, the body returns, the task exits) leaves its
// pooled timer ARMED until the engine fires it. The pool invariant is
// that such an object is never handed to another waiter while armed —
// armTimeout's tripwire panics on violation — and that the eventual
// stale fire is a no-op against both the dead task and any later sleeps.

import (
	"errors"
	"testing"

	"repro/internal/sim"
)

func TestKilledWaiterTimerNotRecycledWhileArmed(t *testing.T) {
	e, k := newKernel()
	space := k.NewAddressSpace()
	a, err := space.Mmap(8, semProt, "victim-word", true, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := space.Mmap(8, semProt, "churn-word", true, nil)
	if err != nil {
		t.Fatal(err)
	}

	// The victim arms a long (500us) timeout and is killed at 10us: its
	// timer stays armed for another 490us of churn below.
	var victimErr error
	victim := k.NewTask("victim", space, func(task *Task) int {
		victimErr = task.FutexWaitTimeout(a, 0, 500*sim.Microsecond)
		return 0
	})

	// The churner runs sequential short timed waits through the window
	// in which the victim's timer is armed, then past its stale fire.
	// Every wait draws a timer from the pool: if any cancel/exit path
	// had pooled the victim's armed object, a handout here would panic
	// (the tripwire) or — pre-tripwire — silently retarget the victim's
	// 500us fire into one of these sleeps, ending it early.
	const churnWait = 20 * sim.Microsecond
	var churnErrs []error
	var churnDurs []sim.Duration
	churner := k.NewTask("churner", space, func(task *Task) int {
		task.Nanosleep(15 * sim.Microsecond) // victim killed at 10us
		for i := 0; i < 30; i++ {            // 15us..615us: spans the 500us stale fire
			t0 := e.Now()
			churnErrs = append(churnErrs, task.FutexWaitTimeout(b, 0, churnWait))
			churnDurs = append(churnDurs, e.Now().Sub(t0))
		}
		return 0
	})

	killer := k.NewTask("killer", space, func(task *Task) int {
		task.Nanosleep(10 * sim.Microsecond)
		return errCode(task.Kill(victim.PID(), SIGKILL))
	})

	victim.SetAffinity(0)
	churner.SetAffinity(1)
	killer.SetAffinity(2)
	k.Start(victim, 0)
	k.Start(churner, 0)
	k.Start(killer, 0)
	if err := e.Run(); err != nil {
		t.Fatalf("engine: %v", err)
	}

	if !errors.Is(victimErr, ErrInterrupted) {
		t.Fatalf("victim: %v, want ErrInterrupted (killed mid-sleep)", victimErr)
	}
	for i, cerr := range churnErrs {
		if !errors.Is(cerr, ErrTimedOut) {
			t.Errorf("churn wait %d: %v, want ErrTimedOut", i, cerr)
		}
		// A stale-timer hit would end the sleep before its own deadline.
		if churnDurs[i] < churnWait {
			t.Errorf("churn wait %d lasted %v, want >= %v (woken by a stale timer?)", i, churnDurs[i], churnWait)
		}
	}
	st := k.FutexStats()
	if st.Blocked != st.Resumed+st.Timeouts+st.Interrupted {
		t.Errorf("sleeps not conserved: %+v", st)
	}
	if st.Interrupted != 1 {
		t.Errorf("ledger counts %d interrupts, want 1 (the kill)", st.Interrupted)
	}
	if n := k.ResidualFutexWaiters(); n != 0 {
		t.Errorf("%d residual futex waiters", n)
	}
	if n := k.FutexTableSize(); n != 0 {
		t.Errorf("futex table retains %d queues", n)
	}
}

func errCode(err error) int {
	if err != nil {
		return 1
	}
	return 0
}
