package kernel

import (
	"fmt"
	"testing"

	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// TestFutexTableHygieneSoak churns waits over many distinct futex words,
// draining queues through all three exit paths — delivered wake, timeout
// and signal interrupt — and asserts the futex table retains no drained
// queues: non-empty while sleepers exist, empty again at quiescence,
// with the table-size gauge agreeing.
func TestFutexTableHygieneSoak(t *testing.T) {
	e, k := newKernel()
	reg := metrics.NewRegistry()
	k.SetMetrics(reg)
	space := k.NewAddressSpace()

	const rounds = 16
	var wakeErrs, timeoutErrs, intrErrs []error
	sawPopulated := false
	driver := k.NewTask("driver", space, func(task *Task) int {
		for r := 0; r < rounds; r++ {
			// Wake path: a waiter on a fresh word, drained by FutexWake.
			wAddr, err := space.Mmap(8, semProt, "wake-word", true, nil)
			if err != nil {
				t.Error(err)
				return 1
			}
			waiter := k.NewTask(fmt.Sprintf("w%d", r), space, func(task *Task) int {
				wakeErrs = append(wakeErrs, task.FutexWait(wAddr, 0))
				return 0
			})
			waiter.SetAffinity(1)
			k.Start(waiter, 0)

			// Timeout path: nobody ever wakes this word.
			tAddr, err := space.Mmap(8, semProt, "timeout-word", true, nil)
			if err != nil {
				t.Error(err)
				return 1
			}
			timeouter := k.NewTask(fmt.Sprintf("to%d", r), space, func(task *Task) int {
				timeoutErrs = append(timeoutErrs, task.FutexWaitTimeout(tAddr, 0, 5*sim.Microsecond))
				return 0
			})
			timeouter.SetAffinity(2)
			k.Start(timeouter, 0)

			// Interrupt path: the waiter is pulled out by a signal.
			iAddr, err := space.Mmap(8, semProt, "intr-word", true, nil)
			if err != nil {
				t.Error(err)
				return 1
			}
			victim := k.NewTask(fmt.Sprintf("iv%d", r), space, func(task *Task) int {
				intrErrs = append(intrErrs, task.FutexWait(iAddr, 0))
				return 0
			})
			victim.SetAffinity(3)
			k.Start(victim, 0)

			task.Nanosleep(10 * sim.Microsecond) // let all three block
			if k.FutexTableSize() >= 2 {
				sawPopulated = true
			} else {
				t.Errorf("round %d: table size %d with 3 sleepers, want >= 2", r, k.FutexTableSize())
			}
			task.FutexWake(wAddr, 1)
			if err := task.Kill(victim.PID(), SIGUSR1); err != nil {
				t.Errorf("round %d: kill: %v", r, err)
			}
			task.Nanosleep(20 * sim.Microsecond) // let the timeout fire too
		}
		// Waking a word with no sleepers must not create a table entry.
		ghost, err := space.Mmap(8, semProt, "ghost-word", true, nil)
		if err != nil {
			t.Error(err)
			return 1
		}
		if n := task.FutexWake(ghost, 1); n != 0 {
			t.Errorf("FutexWake on ghost word = %d, want 0", n)
		}
		return 0
	})
	driver.SetAffinity(0)
	k.Start(driver, 0)
	if err := e.Run(); err != nil {
		t.Fatalf("engine: %v", err)
	}

	if !sawPopulated {
		t.Error("table never observed populated mid-round")
	}
	for _, err := range wakeErrs {
		if err != nil {
			t.Errorf("woken waiter err = %v, want nil", err)
		}
	}
	for _, err := range timeoutErrs {
		if err != ErrTimedOut {
			t.Errorf("timeout waiter err = %v, want ErrTimedOut", err)
		}
	}
	for _, err := range intrErrs {
		if err != ErrInterrupted {
			t.Errorf("interrupted waiter err = %v, want ErrInterrupted", err)
		}
	}
	if got := len(wakeErrs) + len(timeoutErrs) + len(intrErrs); got != 3*rounds {
		t.Errorf("%d waits completed, want %d", got, 3*rounds)
	}
	if n := k.FutexTableSize(); n != 0 {
		t.Errorf("futex table retains %d drained queues at quiescence, want 0", n)
	}
	if n := k.ResidualFutexWaiters(); n != 0 {
		t.Errorf("residual futex waiters = %d, want 0", n)
	}
	g := reg.Gauge("kernel.futex.table_size")
	if g.Value() != 0 {
		t.Errorf("table_size gauge = %d at quiescence, want 0", g.Value())
	}
	if g.Max() < 2 {
		t.Errorf("table_size gauge high-water = %d, want >= 2", g.Max())
	}
}

// pickWords maps a region and returns three distinct 8-aligned words in
// it.
func pickWords(t *testing.T, space *mem.AddressSpace) (a, b, c uint64) {
	t.Helper()
	base, err := space.Mmap(8*3, semProt, "futex-words", true, nil)
	if err != nil {
		t.Fatal(err)
	}
	return base, base + 8, base + 16
}

// TestFutexRequeueAcrossWords exercises FUTEX_CMP_REQUEUE from one word
// to two others: wake slots and move slots are honoured in FIFO order,
// the source entry drops when drained, each destination entry is created
// by the arriving sleepers, and wakes on the destination words reach the
// transferred waiters.
func TestFutexRequeueAcrossWords(t *testing.T) {
	e, k := newKernel()
	space := k.NewAddressSpace()
	a, b, c := pickWords(t, space)

	const nWaiters = 4
	errs := make([]error, nWaiters)
	order := []int(nil)
	for i := 0; i < nWaiters; i++ {
		i := i
		w := k.NewTask(fmt.Sprintf("w%d", i), space, func(task *Task) int {
			task.Nanosleep(sim.Duration(i+1) * sim.Microsecond) // deterministic FIFO arrival
			errs[i] = task.FutexWait(a, 0)
			order = append(order, i)
			return 0
		})
		w.SetAffinity(1 + i%3)
		k.Start(w, 0)
	}
	driver := k.NewTask("driver", space, func(task *Task) int {
		task.Nanosleep(20 * sim.Microsecond) // all four asleep on a

		// Degenerate and failure cases first: same word is EINVAL, a
		// changed value is EAGAIN, and neither touches the queue.
		if _, err := task.FutexRequeue(a, 0, 1, 1, a); err != ErrInvalid {
			t.Errorf("requeue a->a err = %v, want ErrInvalid", err)
		}
		if _, err := task.FutexRequeue(a, 7, 1, 1, b); err != ErrFutexAgain {
			t.Errorf("requeue with stale expected err = %v, want ErrFutexAgain", err)
		}
		if got := k.FutexWaiters(space.ID, a); got != nWaiters {
			t.Errorf("failed requeues disturbed the queue: %d waiters, want %d", got, nWaiters)
		}

		// Wake w0, move w1 and w2 to b.
		n, err := task.FutexRequeue(a, 0, 1, 2, b)
		if err != nil || n != 3 {
			t.Errorf("requeue a->b = (%d, %v), want (3, nil)", n, err)
		}
		if got := k.FutexWaiters(space.ID, a); got != 1 {
			t.Errorf("after a->b: %d waiters on a, want 1", got)
		}
		if got := k.FutexWaiters(space.ID, b); got != 2 {
			t.Errorf("after a->b: %d waiters on b, want 2", got)
		}
		// Move the last sleeper on a to c; a's entry drops.
		n, err = task.FutexRequeue(a, 0, 0, 1, c)
		if err != nil || n != 1 {
			t.Errorf("requeue a->c = (%d, %v), want (1, nil)", n, err)
		}
		if got := k.FutexWaiters(space.ID, a); got != 0 {
			t.Errorf("after a->c: %d waiters on a, want 0", got)
		}
		if got := k.FutexTableSize(); got != 2 {
			t.Errorf("table size = %d with sleepers on b and c only, want 2", got)
		}

		// Transferred waiters are now woken by their new words, in the
		// FIFO order they were moved.
		if got := task.FutexWake(b, 2); got != 2 {
			t.Errorf("FutexWake(b, 2) = %d, want 2", got)
		}
		if got := task.FutexWake(c, 1); got != 1 {
			t.Errorf("FutexWake(c, 1) = %d, want 1", got)
		}
		return 0
	})
	driver.SetAffinity(0)
	k.Start(driver, 0)
	if err := e.Run(); err != nil {
		t.Fatalf("engine: %v", err)
	}
	for i, err := range errs {
		if err != nil {
			t.Errorf("waiter %d err = %v, want nil", i, err)
		}
	}
	if len(order) != nWaiters {
		t.Fatalf("%d waiters resumed, want %d", len(order), nWaiters)
	}
	if order[0] != 0 {
		t.Errorf("first resumed waiter = w%d, want w0 (the woken one)", order[0])
	}
	if st := k.FutexStats(); st.Requeued != 3 {
		t.Errorf("FutexStats.Requeued = %d, want 3", st.Requeued)
	}
	if n := k.FutexTableSize(); n != 0 {
		t.Errorf("futex table retains %d entries at quiescence, want 0", n)
	}
	if n := k.ResidualFutexWaiters(); n != 0 {
		t.Errorf("residual futex waiters = %d, want 0", n)
	}
}

// TestFutexTimeoutSurvivesRequeue pins the waitSeq-based timer design: a
// timed waiter moved to another word's queue by FUTEX_CMP_REQUEUE keeps
// its pending timeout and times out on the *destination* queue, whose
// entry must then drop.
func TestFutexTimeoutSurvivesRequeue(t *testing.T) {
	e, k := newKernel()
	space := k.NewAddressSpace()
	a, b, _ := pickWords(t, space)

	var waitErr error
	w := k.NewTask("tw", space, func(task *Task) int {
		waitErr = task.FutexWaitTimeout(a, 0, 100*sim.Microsecond)
		return 0
	})
	w.SetAffinity(1)
	k.Start(w, 0)
	driver := k.NewTask("driver", space, func(task *Task) int {
		task.Nanosleep(10 * sim.Microsecond)
		n, err := task.FutexRequeue(a, 0, 0, 1, b)
		if err != nil || n != 1 {
			t.Errorf("requeue = (%d, %v), want (1, nil)", n, err)
		}
		if got := k.FutexWaiters(space.ID, b); got != 1 {
			t.Errorf("%d waiters on b after requeue, want 1", got)
		}
		return 0
	})
	driver.SetAffinity(0)
	k.Start(driver, 0)
	if err := e.Run(); err != nil {
		t.Fatalf("engine: %v", err)
	}
	if waitErr != ErrTimedOut {
		t.Errorf("requeued timed waiter err = %v, want ErrTimedOut", waitErr)
	}
	if n := k.FutexTableSize(); n != 0 {
		t.Errorf("futex table retains %d entries after timeout on requeued word, want 0", n)
	}
}

// TestFutexInterruptRetentionPerWord plants two waiters on each of two
// words, signal-interrupts one waiter per word, and asserts each
// survivor queue retains no reference to the departed waiter.
func TestFutexInterruptRetentionPerWord(t *testing.T) {
	e, k := newKernel()
	space := k.NewAddressSpace()
	a, b, _ := pickWords(t, space)

	words := []uint64{a, b}
	victims := make([]*Task, 2)
	victimErrs := make([]error, 2)
	survivorErrs := make([]error, 2)
	for i, addr := range words {
		i, addr := i, addr
		s := k.NewTask(fmt.Sprintf("s%d", i), space, func(task *Task) int {
			survivorErrs[i] = task.FutexWait(addr, 0)
			return 0
		})
		s.SetAffinity(1)
		k.Start(s, 0)
		victims[i] = k.NewTask(fmt.Sprintf("v%d", i), space, func(task *Task) int {
			task.Nanosleep(sim.Microsecond) // queue behind the survivor
			victimErrs[i] = task.FutexWait(addr, 0)
			return 0
		})
		victims[i].SetAffinity(2)
		k.Start(victims[i], 0)
	}
	driver := k.NewTask("driver", space, func(task *Task) int {
		task.Nanosleep(10 * sim.Microsecond) // all four asleep
		for i, addr := range words {
			if err := task.Kill(victims[i].PID(), SIGUSR1); err != nil {
				t.Errorf("kill victim %d: %v", i, err)
			}
			q := k.futexes.lookup(futexKey{space.ID, addr})
			if q == nil {
				t.Errorf("word %d: queue dropped while a survivor sleeps", i)
				continue
			}
			if q.Len() != 1 {
				t.Errorf("word %d: queue len = %d after interrupt, want 1", i, q.Len())
			}
			if retainsTask(q, victims[i]) {
				t.Errorf("word %d: queue retains the interrupted waiter", i)
			}
			if got := task.FutexWake(addr, 1); got != 1 {
				t.Errorf("word %d: FutexWake = %d, want 1", i, got)
			}
		}
		return 0
	})
	driver.SetAffinity(0)
	k.Start(driver, 0)
	if err := e.Run(); err != nil {
		t.Fatalf("engine: %v", err)
	}
	for i := 0; i < 2; i++ {
		if victimErrs[i] != ErrInterrupted {
			t.Errorf("victim %d err = %v, want ErrInterrupted", i, victimErrs[i])
		}
		if survivorErrs[i] != nil {
			t.Errorf("survivor %d err = %v, want nil", i, survivorErrs[i])
		}
	}
	if n := k.FutexTableSize(); n != 0 {
		t.Errorf("futex table retains %d entries at quiescence, want 0", n)
	}
	if n := k.ResidualFutexWaiters(); n != 0 {
		t.Errorf("residual futex waiters = %d, want 0", n)
	}
}

// TestFutexManyWordsSoak puts one sleeper on each of 256 sequential
// words, then drains them all, asserting the table size peaks at the
// word count and returns to zero, with the table-size gauge agreeing.
func TestFutexManyWordsSoak(t *testing.T) {
	e, k := newKernel()
	reg := metrics.NewRegistry()
	k.SetMetrics(reg)
	space := k.NewAddressSpace()

	const words = 256
	base, err := space.Mmap(8*words, semProt, "soak-words", true, nil)
	if err != nil {
		t.Fatal(err)
	}
	errs := make([]error, words)
	for i := 0; i < words; i++ {
		i := i
		w := k.NewTask(fmt.Sprintf("w%d", i), space, func(task *Task) int {
			errs[i] = task.FutexWait(base+uint64(8*i), 0)
			return 0
		})
		w.SetAffinity(1 + i%3)
		k.Start(w, 0)
	}
	driver := k.NewTask("driver", space, func(task *Task) int {
		for k.FutexTableSize() < words {
			task.Nanosleep(10 * sim.Microsecond)
		}
		for i := 0; i < words; i++ {
			if got := task.FutexWake(base+uint64(8*i), 1); got != 1 {
				t.Errorf("word %d: FutexWake = %d, want 1", i, got)
			}
		}
		return 0
	})
	driver.SetAffinity(0)
	k.Start(driver, 0)
	if err := e.Run(); err != nil {
		t.Fatalf("engine: %v", err)
	}
	for i, err := range errs {
		if err != nil {
			t.Errorf("waiter %d err = %v, want nil", i, err)
		}
	}
	if n := k.FutexTableSize(); n != 0 {
		t.Errorf("futex table retains %d entries at quiescence, want 0", n)
	}
	g := reg.Gauge("kernel.futex.table_size")
	if g.Value() != 0 {
		t.Errorf("table_size gauge = %d at quiescence, want 0", g.Value())
	}
	if g.Max() != words {
		t.Errorf("table_size gauge high-water = %d, want %d", g.Max(), words)
	}
}
