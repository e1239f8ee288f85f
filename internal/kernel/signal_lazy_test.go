package kernel

// Tests for the lazily-allocated signal-handler map (PR 6): at a
// million tasks an eager map per task is pure footprint, so the map must
// stay nil until the first Sigaction — including across Fork-less
// (CloneSighand-sharing) exec-style spawns and fork-style Copy — while
// sharing and deep-copy semantics stay exact.

import "testing"

func TestSignalHandlerMapStaysLazy(t *testing.T) {
	e, k := newKernel()
	space := k.NewAddressSpace()
	var threadSig *SignalState
	var forkChild *Task
	root := k.NewTask("root", space, func(task *Task) int {
		// Fork-less exec-style spawn: the thread shares the parent's
		// disposition object outright. Its *Task is invalid after the
		// Join, so its state is read before.
		threadChild := task.Clone("thread", PThreadFlags, func(c *Task) int { return 0 })
		threadSig = threadChild.Signals()
		// Fork-style spawn: the disposition is copied.
		forkChild = task.Clone("fork", CloneVM, func(c *Task) int { return 0 })
		task.Join(threadChild)
		task.Join(forkChild)
		return 0
	})
	k.Start(root, 0)

	if err := e.Run(); err != nil {
		t.Fatalf("engine: %v", err)
	}
	if root.Signals().handlers != nil {
		t.Errorf("root allocated a handler map without any Sigaction")
	}
	if threadSig != root.Signals() {
		t.Errorf("CloneSighand child does not share the parent's SignalState")
	}
	if forkChild.Signals() == root.Signals() {
		t.Errorf("fork-style child shares the parent's SignalState, want a copy")
	}
	if forkChild.Signals().handlers != nil {
		t.Errorf("fork-style Copy allocated a handler map for a handler-less parent")
	}
}

func TestSignalHandlerSharingAndCopySemantics(t *testing.T) {
	e, k := newKernel()
	log := recordDeliveries(k)
	space := k.NewAddressSpace()
	var rootFired, threadFired, forkFired int
	root := k.NewTask("root", space, func(task *Task) int {
		thread := task.Clone("thread", PThreadFlags, func(c *Task) int {
			// Registered through the shared table: visible to the parent.
			c.Sigaction(SIGUSR1, func(*Task, int) { threadFired++ })
			return 0
		})
		task.Join(thread)
		fork := task.Clone("fork", CloneVM, func(c *Task) int {
			// The fork-style copy inherits SIGUSR1 at clone time; this
			// registration must stay private to the child.
			c.Sigaction(SIGUSR2, func(*Task, int) { forkFired++ })
			c.Kill(c.PID(), SIGUSR1)
			c.Kill(c.PID(), SIGUSR2)
			return 0
		})
		task.Join(fork)
		task.Kill(task.PID(), SIGUSR1) // via the handler the thread registered
		task.Kill(task.PID(), SIGUSR2) // fork-private: must be unhandled here
		return 0
	})
	_ = rootFired
	k.Start(root, 0)

	if err := e.Run(); err != nil {
		t.Fatalf("engine: %v", err)
	}
	if threadFired != 2 {
		t.Errorf("shared-table SIGUSR1 handler fired %d times, want 2 (fork child + parent)", threadFired)
	}
	if forkFired != 1 {
		t.Errorf("fork-private SIGUSR2 handler fired %d times, want 1 (child only)", forkFired)
	}
	var handled int
	for _, d := range *log {
		if d.task == root && d.handled {
			handled++
		}
	}
	if handled != 1 {
		t.Errorf("parent handled %d deliveries, want 1 (SIGUSR1 only; SIGUSR2 is fork-private)", handled)
	}
}
