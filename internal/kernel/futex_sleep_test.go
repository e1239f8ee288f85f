package kernel

import (
	"errors"
	"testing"

	"repro/internal/mem"
	"repro/internal/probe"
	"repro/internal/sim"
)

// armLostWake attaches a fault:armed program that reports the
// futex_lost_wake site armed for every task, as a fault plane with a
// lost-wake spec does, without ever dropping a wake.
func armLostWake(k *Kernel) {
	k.Probes().Attach("arm-lost-wake", func(c *probe.Ctx) probe.Verdict {
		return probe.Verdict{Drop: c.Site == "futex_lost_wake"}
	}, probe.PFaultArmed)
}

// sleepFor runs one FutexSleep and reports its error and how long it
// took in virtual time.
func sleepFor(task *Task, addr, val uint64, b *Backoff) (sim.Duration, error) {
	start := task.Kernel().Engine().Now()
	err := task.FutexSleep(addr, val, b)
	return task.Kernel().Engine().Now().Sub(start), err
}

// TestFutexSleepUntimedWhenNotArmed: with no fault program attached the
// recovery sleep is a plain FutexWait. It outlasts every timeout b
// could arm, ends only at the wake, and leaves b alone.
func TestFutexSleepUntimedWhenNotArmed(t *testing.T) {
	_, k := newKernel()
	const wakeAt = 10 * sim.Millisecond
	runMain(t, k, func(task *Task) int {
		a, err := task.Mmap(8, true)
		if err != nil {
			t.Error(err)
			return 1
		}
		waker := task.Clone("waker", PThreadFlags, func(w *Task) int {
			w.Nanosleep(wakeAt)
			w.FutexWake(a, 1)
			return 0
		})
		b := Backoff{Base: 10 * sim.Microsecond, Max: 100 * sim.Microsecond}
		if slept, err := sleepFor(task, a, 0, &b); err != nil || slept < wakeAt {
			t.Errorf("FutexSleep = %v after %v, want nil after the wake at %v", err, slept, wakeAt)
		}
		if b.next != 0 {
			t.Errorf("unarmed sleep moved the backoff to %v", b.next)
		}
		task.Join(waker)
		return 0
	})
	if n := k.FutexStats().Timeouts; n != 0 {
		t.Errorf("timeouts = %d, want 0", n)
	}
}

// TestFutexSleepBackoff: armed, the timeouts run Base, 2·Base, … up to
// Max and stay at Max through 64 consecutive timeouts (a 20 µs Base
// shifted left 39 times overflows int64); a wake sets the next timeout
// back to Base. Each sleep lasts its timeout plus the futex call's own
// costs, under a microsecond.
func TestFutexSleepBackoff(t *testing.T) {
	_, k := newKernel()
	armLostWake(k)
	const base, ceiling = 20 * sim.Microsecond, 2 * sim.Millisecond
	within := func(slept, timeout sim.Duration) bool {
		return slept >= timeout && slept < timeout+sim.Microsecond
	}
	runMain(t, k, func(task *Task) int {
		a, err := task.Mmap(8, true)
		if err != nil {
			t.Error(err)
			return 1
		}
		b := Backoff{Base: base, Max: ceiling}
		want := base
		for i := 0; i < 64; i++ {
			slept, err := sleepFor(task, a, 0, &b)
			if err != nil || !within(slept, want) {
				t.Errorf("sleep %d = %v after %v, want nil after its %v timeout", i, err, slept, want)
				return 1
			}
			if want *= 2; want > ceiling {
				want = ceiling
			}
		}
		waker := task.Clone("waker", PThreadFlags, func(w *Task) int {
			w.Nanosleep(100 * sim.Microsecond)
			w.FutexWake(a, 1)
			return 0
		})
		if slept, err := sleepFor(task, a, 0, &b); err != nil || slept >= ceiling {
			t.Errorf("woken sleep = %v after %v, want nil before the %v timeout", err, slept, ceiling)
		}
		if slept, err := sleepFor(task, a, 0, &b); err != nil || !within(slept, base) {
			t.Errorf("sleep after the wake = %v after %v, want nil after the %v base timeout", err, slept, base)
		}
		task.Join(waker)
		return 0
	})
}

// TestFutexSleepReturns: EAGAIN, EINTR and ETIMEDOUT return nil, since
// the caller only re-checks its condition after each; any other error,
// here the fault of a sleep on an unmapped word, passes through and,
// like every return but a timeout, resets the backoff.
func TestFutexSleepReturns(t *testing.T) {
	_, k := newKernel()
	armLostWake(k)
	var eintr bool
	k.Probes().Attach("stub-faults", func(c *probe.Ctx) probe.Verdict {
		if c.Site == "futex_wait" && eintr {
			eintr = false
			return probe.Verdict{Err: ErrInterrupted}
		}
		return probe.Verdict{}
	}, probe.PFaultSite)
	runMain(t, k, func(task *Task) int {
		a, err := task.Mmap(8, true)
		if err != nil {
			t.Error(err)
			return 1
		}
		b := Backoff{Base: 10 * sim.Microsecond, Max: sim.Millisecond}
		if err := task.FutexSleep(a, 1, &b); err != nil {
			t.Errorf("EAGAIN: FutexSleep = %v, want nil", err)
		}
		eintr = true
		if err := task.FutexSleep(a, 0, &b); err != nil {
			t.Errorf("EINTR: FutexSleep = %v, want nil", err)
		}
		if err := task.FutexSleep(a, 0, &b); err != nil || b.next != 2*b.Base {
			t.Errorf("ETIMEDOUT: FutexSleep = %v with next timeout %v, want nil and %v", err, b.next, 2*b.Base)
		}
		const unmapped = 0x10
		if err := task.FutexSleep(unmapped, 0, &b); !errors.Is(err, mem.ErrSegfault) || b.next != 0 {
			t.Errorf("unmapped word: FutexSleep = %v with next timeout %v, want mem.ErrSegfault and Base", err, b.next)
		}
		return 0
	})
	if n := k.FutexStats().Timeouts; n != 1 {
		t.Errorf("timeouts = %d, want 1", n)
	}
}
