package aio

import (
	"errors"
	"testing"

	"repro/internal/arch"
	"repro/internal/fault"
	"repro/internal/fs"
	"repro/internal/kernel"
	"repro/internal/probe"
	"repro/internal/sim"
)

// runFaults is run with a fault plane installed before the task starts.
func runFaults(t *testing.T, seed uint64, specs []fault.Spec, body func(task *kernel.Task)) *fault.Plane {
	t.Helper()
	e := sim.New()
	k := kernel.New(e, arch.Wallaby())
	plane := fault.NewPlane(seed, specs)
	plane.Attach(k.Probes())
	task := k.NewTask("main", k.NewAddressSpace(), func(task *kernel.Task) int {
		body(task)
		return 0
	})
	k.Start(task, 0)
	if err := e.Run(); err != nil {
		t.Fatalf("engine: %v", err)
	}
	return plane
}

// TestHelperKillFailsQueuedRequestAndRespawns: a fault-killed helper
// fails its queued aiocbs with ErrHelperDied (waking Suspend waiters
// instead of hanging them), and the next submission grows the pool back —
// the replacement helper serves requests normally.
func TestHelperKillFailsQueuedRequestAndRespawns(t *testing.T) {
	runFaults(t, 1,
		[]fault.Spec{{Site: probe.SiteAIOHelperKill, Nth: 2, TaskPrefix: "aio-helper"}},
		func(task *kernel.Task) {
			ctx, err := New(task)
			if err != nil {
				t.Error(err)
				return
			}
			fd, _ := task.Open("/f", fs.OCreate|fs.OWrOnly)

			// Submit both up front: the helper serves r1 (kill check 1),
			// then dies at the top of its next loop pass (kill check 2)
			// with r2 still queued.
			r1, _ := ctx.WriteAsync(task, fd, []byte("served"))
			r2, _ := ctx.WriteAsync(task, fd, []byte("doomed"))
			// The dead helper's *Task is invalid once the next submit
			// has joined it, so the helpers are compared by pid.
			firstHelper := ctx.Helper().PID()
			if n, err := r1.Suspend(task); err != nil || n != 6 {
				t.Errorf("first request = %d,%v, want 6,nil", n, err)
				return
			}
			if _, err := r2.Suspend(task); !errors.Is(err, ErrHelperDied) {
				t.Errorf("killed-helper request err = %v, want ErrHelperDied", err)
				return
			}
			if _, err := r2.Return(task); !errors.Is(err, ErrHelperDied) {
				t.Errorf("Return after helper death = %v, want ErrHelperDied", err)
			}

			// Request 3 respawns a helper and completes.
			r3, _ := ctx.WriteAsync(task, fd, []byte("revived!"))
			if ctx.Helper().PID() == firstHelper {
				t.Error("helper not respawned after death")
			}
			if n, err := r3.Suspend(task); err != nil || n != 8 {
				t.Errorf("respawned-helper request = %d,%v, want 8,nil", n, err)
			}
			if ctx.Respawns() != 1 {
				t.Errorf("respawns = %d, want 1", ctx.Respawns())
			}

			task.Close(fd)
			ctx.Close(task)
			// Only the served requests count as completed.
			if sub, comp := ctx.Stats(); sub != 3 || comp != 2 {
				t.Errorf("stats = %d,%d, want 3,2", sub, comp)
			}
		})
}

// TestSuspendToleratesInjectedEINTRAndLostWakes: EINTR on futex_wait and
// dropped completion wakes must not surface from Suspend or wedge the
// helper's sleep loop — the request still completes.
func TestSuspendToleratesInjectedEINTRAndLostWakes(t *testing.T) {
	plane := runFaults(t, 2,
		[]fault.Spec{
			{Site: probe.SiteFutexWait, Prob: 0.4, Err: "eintr"},
			{Site: probe.SiteFutexLostWake, Prob: 0.5},
			{Site: probe.SiteFutexSpurious, Prob: 0.3},
		},
		func(task *kernel.Task) {
			ctx, _ := New(task)
			fd, _ := task.Open("/f", fs.OCreate|fs.OWrOnly)
			for i := 0; i < 6; i++ {
				r, err := ctx.WriteAsync(task, fd, []byte("jittery"))
				if err != nil {
					t.Fatal(err)
				}
				if n, err := r.Suspend(task); err != nil || n != 7 {
					t.Fatalf("request %d = %d,%v, want 7,nil", i, n, err)
				}
			}
			task.Close(fd)
			ctx.Close(task)
		})
	if plane.Injections() == 0 {
		t.Error("nothing injected; the test exercised nothing")
	}
}
