package kernel

import (
	"testing"

	"repro/internal/probe"
	"repro/internal/sim"
)

// The release rule: the Join that observes a dead thread reaps it, and
// a later Clone reuses its storage, but only once no Join on it is in
// flight, none of its timeout timers is pending and it has no children.
// Under the taskpoison tag a reaped thread is never reused, so the
// tests that expect reuse expect none there.

// runRoot starts root on a fresh kernel and runs the engine to the end.
func runRoot(t *testing.T, k *Kernel, body TaskBody) {
	t.Helper()
	k.Start(k.NewTask("root", k.NewAddressSpace(), body), 0)
	if err := k.Engine().Run(); err != nil {
		t.Fatal(err)
	}
}

// freeCount reports how often t sits on the kernel's free list.
func freeCount(k *Kernel, t *Task) int {
	n := 0
	for _, f := range k.free {
		if f == t {
			n++
		}
	}
	return n
}

// TestReapWaitsForPendingTimer: a thread joined while the timeout timer
// of its last futex wait is pending is reaped only when that timer
// fires. A clone made before then gets new storage: had it reused the
// thread's, it would sleep in its first wait under the same wait
// sequence number, and the late fire would time it out. Here the fire
// reports the dead thread and wakes nobody, and the first clone after
// it reuses the thread's storage.
func TestReapWaitsForPendingTimer(t *testing.T) {
	_, k := newKernel()
	var fired []int
	k.Probes().Attach("futex-timers", func(c *probe.Ctx) probe.Verdict {
		if c.ID == probe.SiteTimerFutex {
			fired = append(fired, c.Task.PID())
		}
		return probe.Verdict{}
	}, probe.PTimerFire)
	var (
		aPID, bPID        int
		bReusedA, cReused bool
		bErr              error
		bWoke, wakeAt     sim.Time
	)
	runRoot(t, k, func(rt *Task) int {
		wa, _ := rt.Mmap(8, true)
		wb, _ := rt.Mmap(8, true)
		a := rt.Clone("a", PThreadFlags, func(t *Task) int {
			if t.FutexWaitTimeout(wa, 0, 100*sim.Microsecond) != nil {
				return 1
			}
			return 0
		})
		aPID = a.PID()
		for k.FutexWaiters(rt.Space().ID, wa) == 0 {
			rt.Nanosleep(sim.Microsecond)
		}
		rt.FutexWake(wa, 1)
		if rt.Join(a) != 0 {
			t.Error("a's futex wait did not end with its wake")
		}
		b := rt.Clone("b", PThreadFlags, func(t *Task) int {
			bErr = t.FutexWait(wb, 0)
			bWoke = k.Engine().Now()
			return 0
		})
		bPID, bReusedA = b.PID(), b == a
		rt.Nanosleep(200 * sim.Microsecond) // a's timer fires meanwhile
		c := rt.Clone("c", PThreadFlags, func(*Task) int { return 0 })
		cReused = c == a
		wakeAt = k.Engine().Now()
		rt.FutexWake(wb, 1)
		rt.Join(b)
		rt.Join(c)
		return 0
	})
	if bReusedA {
		t.Error("a clone reused a joined thread whose futex timer was pending")
	}
	if len(fired) != 1 || fired[0] != aPID {
		t.Errorf("futex timers fired for pids %v, want only a's (%d; b is %d)", fired, aPID, bPID)
	}
	if bErr != nil || bWoke < wakeAt {
		t.Errorf("b's wait ended at %v with %v, want nil at its wake, %v", bWoke, bErr, wakeAt)
	}
	if cReused == taskPoison {
		t.Errorf("clone after the timer fired reused a's storage = %v, want %v", cReused, !taskPoison)
	}
}

// TestReapOnceAfterTwoJoins: two threads join one; both get its status,
// and it is reaped once, by the last Join out.
func TestReapOnceAfterTwoJoins(t *testing.T) {
	_, k := newKernel()
	var target *Task
	var statuses []int
	runRoot(t, k, func(rt *Task) int {
		target = rt.Clone("target", PThreadFlags, func(t *Task) int {
			t.Nanosleep(50 * sim.Microsecond)
			return 7
		})
		joiner := func(t *Task) int {
			statuses = append(statuses, t.Join(target))
			return 0
		}
		j1 := rt.Clone("j1", PThreadFlags, joiner)
		j2 := rt.Clone("j2", PThreadFlags, joiner)
		rt.Join(j1)
		rt.Join(j2)
		return 0
	})
	if len(statuses) != 2 || statuses[0] != 7 || statuses[1] != 7 {
		t.Errorf("joiners got %v, want [7 7]", statuses)
	}
	if target.kernel != nil {
		t.Error("target was not reaped")
	}
	want := 1
	if taskPoison {
		want = 0
	}
	if n := freeCount(k, target); n != want {
		t.Errorf("target is on the free list %d times, want %d", n, want)
	}
}

// TestReapSkipsThreadWithChildren: a thread joined while its own thread
// is still alive is never reused. The child unlinks itself from the
// dead thread's child list when it exits; had a clone taken the dead
// thread's storage, that unlink would empty the clone's child list, and
// its wait(2) for its own child would fail.
func TestReapSkipsThreadWithChildren(t *testing.T) {
	_, k := newKernel()
	var p *Task
	var reused bool
	var kidPID, waited int
	var waitErr error
	runRoot(t, k, func(rt *Task) int {
		p = rt.Clone("p", PThreadFlags, func(pt *Task) int {
			pt.Clone("c", PThreadFlags, func(c *Task) int {
				c.Nanosleep(100 * sim.Microsecond)
				return 0
			})
			return 0
		})
		rt.Join(p)
		q := rt.Clone("q", PThreadFlags, func(qt *Task) int {
			kidPID = qt.Clone("q1", CloneVM, func(*Task) int { return 0 }).PID()
			qt.Nanosleep(200 * sim.Microsecond) // c exits meanwhile
			waited, _, waitErr = qt.Wait()
			return 0
		})
		reused = q == p
		rt.Join(q)
		return 0
	})
	if reused {
		t.Error("a clone reused a thread joined with a live child")
	}
	if waitErr != nil || waited != kidPID {
		t.Errorf("q's wait = pid %d, %v; want its child %d", waited, waitErr, kidPID)
	}
	if p.kernel == nil || freeCount(k, p) != 0 {
		t.Error("a thread joined with a live child was reaped")
	}
}

// TestReapedTaskComesBackFresh: a clone that reuses a reaped thread's
// storage gets a new pid and name, zero CPU time and switches, no
// lookup of the old pid, and the FD and signal tables its own flags
// give: shared with a thread, copied for a process, whatever the dead
// thread had.
func TestReapedTaskComesBackFresh(t *testing.T) {
	_, k := newKernel()
	var aCPU sim.Duration
	var aSwitches uint64
	runRoot(t, k, func(rt *Task) int {
		rt.Sigaction(SIGUSR1, func(*Task, int) {})
		// A thread with its own tables, queued behind the root on its
		// core so that it is switched in and runs up CPU time.
		a := rt.ClonePinned("a", CloneVM|CloneThread, 0, func(t *Task) int {
			t.Compute(10 * sim.Microsecond)
			aCPU, aSwitches = t.CPUTime(), t.CtxSwitches()
			return 0
		})
		if a.FDTable() == rt.FDTable() || a.Signals() == rt.Signals() {
			t.Error("a thread cloned without CloneFiles|CloneSighand shares the tables")
		}
		prev, prevPID := a, a.PID()
		rt.Join(a)
		for _, tc := range []struct {
			name   string
			flags  CloneFlags
			shared bool
		}{{"thread", PThreadFlags, true}, {"process", CloneVM, false}} {
			c := rt.Clone(tc.name, tc.flags, func(*Task) int { return 0 })
			if reused := c == prev; reused == taskPoison {
				t.Errorf("%s: reused the reaped thread's storage = %v, want %v", tc.name, reused, !taskPoison)
			}
			if c.Name() != tc.name || c.PID() <= prevPID || k.Task(prevPID) != nil {
				t.Errorf("%s: name %q pid %d, old pid %d resolves to %v", tc.name, c.Name(), c.PID(), prevPID, k.Task(prevPID))
			}
			if c.CPUTime() != 0 || c.CtxSwitches() != 0 || c.Exited() || c.Parent() != rt {
				t.Errorf("%s: cpu %v switches %d exited %v: not fresh", tc.name, c.CPUTime(), c.CtxSwitches(), c.Exited())
			}
			if shared := c.FDTable() == rt.FDTable(); shared != tc.shared {
				t.Errorf("%s: shares the FD table = %v, want %v", tc.name, shared, tc.shared)
			}
			if shared := c.Signals() == rt.Signals(); shared != tc.shared {
				t.Errorf("%s: shares the signal table = %v, want %v", tc.name, shared, tc.shared)
			}
			if c.Signals().handlers[SIGUSR1] == nil {
				t.Errorf("%s: lost the root's SIGUSR1 handler", tc.name)
			}
			prev, prevPID = c, c.PID()
			rt.Join(c)
			if !tc.shared {
				rt.Wait()
			}
		}
		return 0
	})
	if aCPU == 0 || aSwitches == 0 {
		t.Errorf("the reaped thread ran %v in %d switches: nothing to reset", aCPU, aSwitches)
	}
}
