package aio

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/fs"
	"repro/internal/kernel"
	"repro/internal/probe"
	"repro/internal/sim"
)

// TestIdleHelperBackoffStopsAtCap: with the lost-wake site armed but
// never firing, the idle helper re-checks its empty queue on a backoff
// timer. The timeout must stop growing at waitBackoffMax, so over a long
// idle stretch consecutive timeouts are never further apart than the
// cap plus the sleep loop's own syscall costs (under a microsecond).
func TestIdleHelperBackoffStopsAtCap(t *testing.T) {
	var last sim.Time
	var widest sim.Duration
	fires := 0
	runFaults(t, 1, []fault.Spec{{Site: probe.SiteFutexLostWake, Nth: 1000000}}, func(task *kernel.Task) {
		task.Kernel().Probes().Attach("helper-timeouts", func(c *probe.Ctx) probe.Verdict {
			if c.Task != nil && c.Task.Name() == "aio-helper" {
				if fires > 0 && c.Now.Sub(last) > widest {
					widest = c.Now.Sub(last)
				}
				last = c.Now
				fires++
			}
			return probe.Verdict{}
		}, probe.PFutexTimeout)
		ctx, err := New(task)
		if err != nil {
			t.Error(err)
			return
		}
		fd, _ := task.Open("/f", fs.OCreate|fs.OWrOnly)
		r, err := ctx.WriteAsync(task, fd, []byte("once"))
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := r.Suspend(task); err != nil {
			t.Error(err)
		}
		task.Nanosleep(20 * sim.Millisecond)
		task.Close(fd)
		ctx.Close(task)
	})
	t.Logf("%d helper timeouts, widest gap %v", fires, widest)
	if fires < 10 {
		t.Fatalf("helper timed out %d times in 20 ms idle, want it to reach its cap", fires)
	}
	if widest > waitBackoffMax+sim.Microsecond {
		t.Errorf("widest gap between helper timeouts = %v, want <= %v", widest, waitBackoffMax)
	}
}
