package kernel

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// TestFutexTableChurnZeroAllocs pins the create/drop churn at zero
// allocations: every timed wait is the word's first sleeper, and every
// timeout drains its queue, which the next wait takes back from the
// free list.
func TestFutexTableChurnZeroAllocs(t *testing.T) {
	e, k, step := futexTimeoutSpinner(false)
	step() // absorb one-time growth: first dispatch, timer pool fill
	if got := testing.AllocsPerRun(50, step); got != 0 {
		t.Errorf("futex create/drop churn allocates %.1f per chunk, want 0", got)
	}
	if n := k.FutexTableSize(); n > 1 {
		t.Errorf("futex table holds %d entries, want at most the spinner's", n)
	}
	e.Stop()
	e.Shutdown()
}

// TestFutexPingPongZeroAllocs pins BenchmarkSimulatedFutexPingPong at
// zero allocations per round trip: each semaphore wait is its word's
// first sleeper, so without recycling every round trip allocates two
// wait queues.
func TestFutexPingPongZeroAllocs(t *testing.T) {
	r := testing.Benchmark(BenchmarkSimulatedFutexPingPong)
	if per := float64(r.MemAllocs) / float64(r.N); per >= 0.01 {
		t.Errorf("futex ping-pong allocates %.2f per round trip over %d round trips, want 0", per, r.N)
	}
}

// TestFutexFreeListCapAndReuse drains more words than the free list
// keeps, then reuses a recycled queue as a requeue destination while the
// requeue drains its source: sleepers land on the right word, the table
// ends empty, and the list never exceeds its cap.
func TestFutexFreeListCapAndReuse(t *testing.T) {
	e, k := newKernel()
	space := k.NewAddressSpace()
	const words = maxFreeQueues + 8
	addrs := make([]uint64, words)
	for i := range addrs {
		a, err := space.Mmap(8, semProt, fmt.Sprintf("w%d", i), true, nil)
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = a
	}
	const sleepers = 3
	woken := 0
	root := k.NewTask("root", space, func(task *Task) int {
		// One sleeper per word, all woken: every queue drains.
		for i, a := range addrs {
			w := k.NewTask(fmt.Sprintf("s%d", i), space, func(task *Task) int {
				if err := task.FutexWait(a, 0); err != nil {
					t.Errorf("wait: %v", err)
				}
				return 0
			})
			w.SetAffinity(1 + i%3)
			k.Start(w, 0)
		}
		task.Nanosleep(50 * sim.Microsecond)
		for _, a := range addrs {
			task.FutexWake(a, 1)
		}
		task.Nanosleep(50 * sim.Microsecond)
		if n := len(k.futexes.free); n != maxFreeQueues {
			t.Errorf("free list holds %d queues after %d drains, want the cap %d", n, words, maxFreeQueues)
		}
		// Requeue every sleeper of word 0 onto word 1: the destination
		// queue comes off the free list, and the last move drains the
		// source back onto it.
		for i := 0; i < sleepers; i++ {
			w := k.NewTask(fmt.Sprintf("r%d", i), space, func(task *Task) int {
				if err := task.FutexWait(addrs[0], 0); err != nil {
					t.Errorf("requeued wait: %v", err)
				}
				woken++
				return 0
			})
			w.SetAffinity(1 + i%3)
			k.Start(w, 0)
		}
		task.Nanosleep(50 * sim.Microsecond)
		if n, err := task.FutexRequeue(addrs[0], 0, 0, sleepers, addrs[1]); err != nil || n != sleepers {
			t.Errorf("FutexRequeue = %d, %v; want %d moved", n, err, sleepers)
		}
		if got := k.FutexWaiters(space.ID, addrs[1]); got != sleepers {
			t.Errorf("destination holds %d sleepers, want %d", got, sleepers)
		}
		if got := k.FutexWaiters(space.ID, addrs[0]); got != 0 {
			t.Errorf("source still holds %d sleepers", got)
		}
		task.FutexWake(addrs[1], sleepers)
		task.Nanosleep(50 * sim.Microsecond)
		return 0
	})
	k.Start(root, 0)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if woken != sleepers {
		t.Errorf("%d requeued sleepers woke, want %d", woken, sleepers)
	}
	if n := k.FutexTableSize(); n != 0 {
		t.Errorf("futex table holds %d entries at quiescence, want 0", n)
	}
	if n := len(k.futexes.free); n > maxFreeQueues {
		t.Errorf("free list grew to %d, past its cap %d", n, maxFreeQueues)
	}
}
