package supervise

// Regression test for FutexRequeue's supervision integration: the
// wait-for graph must follow a requeued sleeper to its new word. Before
// the fix the transfer only updated blockedOn, and the watchdog kept
// resolving futex edges through the old address.

import (
	"errors"
	"testing"

	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/sim"
)

// TestDeadlockDetectedAcrossRequeue forms the ABBA futex cycle *through
// a requeue*: task A first parks on a neutral word (a leaf — the word
// holds 0), and only a FUTEX_CMP_REQUEUE moves it onto the word holding
// B's PID while B already sleeps on the word holding A's PID. The
// watchdog must record the two-task cycle; before the fix A's wait
// record still named the neutral word, the futex edge resolved to a
// leaf, and the cycle went unreported.
func TestDeadlockDetectedAcrossRequeue(t *testing.T) {
	e, k := newKernel(t)
	p := New(k, Config{StallHorizon: 200 * sim.Microsecond})
	p.Install()
	space := k.NewAddressSpace()
	mmap := func(name string) uint64 {
		addr, err := space.Mmap(8, mem.ProtRead|mem.ProtWrite, name, true, nil)
		if err != nil {
			t.Fatal(err)
		}
		return addr
	}
	gate := mmap("gate")   // neutral word A parks on first; holds 0 forever
	wordA := mmap("wordA") // will hold A's PID; B sleeps here
	wordB := mmap("wordB") // will hold B's PID; A is requeued here
	var aPID, bPID int
	moved := -1
	root := k.NewTask("rq-root", space, func(task *Task) int {
		a := task.Clone("rq-a", kernel.PThreadFlags, func(c *Task) int {
			for {
				switch c.FutexWait(gate, 0) {
				case nil, kernel.ErrFutexAgain, kernel.ErrInterrupted:
				default:
					return 1
				}
			}
		})
		aPID = a.PID()
		space.WriteU64(wordA, uint64(aPID), nil)
		task.Nanosleep(10 * sim.Microsecond) // A parked on the gate
		b := task.Clone("rq-b", kernel.PThreadFlags, func(c *Task) int {
			for {
				// wordA holds A's PID and A never "unlocks".
				switch c.FutexWait(wordA, uint64(aPID)) {
				case nil, kernel.ErrFutexAgain, kernel.ErrInterrupted:
				default:
					return 1
				}
			}
		})
		bPID = b.PID()
		space.WriteU64(wordB, uint64(bPID), nil)
		task.Nanosleep(10 * sim.Microsecond) // B parked on wordA
		// Close the cycle by transfer, not by a fresh wait: A moves from
		// the leaf gate onto wordB (held by B) without waking.
		n, err := task.FutexRequeue(gate, 0, 0, 1, wordB)
		if err != nil {
			return 1
		}
		moved = n
		return 0
	})
	k.Start(root, 0)
	err := e.Run()
	if !errors.Is(err, sim.ErrDeadlock) {
		t.Fatalf("engine: %v, want ErrDeadlock (A and B park forever)", err)
	}
	if moved != 1 {
		t.Fatalf("FutexRequeue moved %d, want 1", moved)
	}
	found := false
	for _, d := range p.Deadlocks() {
		if len(d.PIDs) == 2 {
			pids := map[int]bool{d.PIDs[0]: true, d.PIDs[1]: true}
			if pids[aPID] && pids[bPID] {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("watchdog recorded no A<->B cycle across the requeue (deadlocks: %v) — wait record kept the old word?", p.Deadlocks())
	}
}
