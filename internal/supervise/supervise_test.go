package supervise

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/sim"
)

func newKernel(t *testing.T) (*sim.Engine, *kernel.Kernel) {
	t.Helper()
	e := sim.New()
	return e, kernel.New(e, arch.Wallaby())
}

type Task = kernel.Task

// TestRestarterBackoffAndQuarantine checks the budget arithmetic: backoff
// doubles from RestartBase to RestartMax with ±25% jitter, the window
// resets the failure count, and exhausting the budget quarantines
// permanently.
func TestRestarterBackoffAndQuarantine(t *testing.T) {
	_, k := newKernel(t)
	reg := metrics.NewRegistry()
	k.SetMetrics(reg)
	p := New(k, Config{Seed: 42})
	r := p.restarter("unit")
	now := sim.Time(0)
	// µs; the eighth failure's 6,400 µs is capped at RestartMax.
	wantCenters := []sim.Duration{50, 100, 200, 400, 800, 1600, 3200, 5000}
	if len(wantCenters) != RestartBudget {
		t.Fatalf("%d centres for a budget of %d", len(wantCenters), RestartBudget)
	}
	for i, c := range wantCenters {
		center := c * sim.Microsecond
		d, ok := r.Next(now)
		if !ok {
			t.Fatalf("failure %d: quarantined inside the budget", i+1)
		}
		if lo, hi := center-center/4, center+center/4; d < lo || d > hi {
			t.Errorf("failure %d: backoff %v outside [%v, %v]", i+1, d, lo, hi)
		}
		now = now.Add(time100us())
	}
	if d, ok := r.Next(now); ok {
		t.Fatalf("failure %d allowed (%v) over RestartBudget", RestartBudget+1, d)
	}
	if !r.quarantined {
		t.Error("restarter not quarantined after exhausting its budget")
	}
	if _, ok := r.Next(now.Add(1 * sim.Second)); ok {
		t.Error("quarantine lifted by time passing; must be permanent")
	}
	if got := p.Quarantines(); got != 1 {
		t.Errorf("plane counts %d quarantines, want 1", got)
	}
	if got := reg.Counter("supervise.restart.allowed").Value(); got != RestartBudget {
		t.Errorf("restarter granted %d respawns, want %d", got, RestartBudget)
	}

	// A fresh lane that fails slower than the window never escalates.
	s := p.restarter("slow")
	now = sim.Time(0)
	for i := 0; i < 20; i++ {
		d, ok := s.Next(now)
		if !ok {
			t.Fatalf("slow failure %d quarantined despite window resets", i+1)
		}
		if lo, hi := RestartBase-RestartBase/4, RestartBase+RestartBase/4; d < lo || d > hi {
			t.Errorf("slow failure %d: backoff %v not at RestartBase (window did not reset)", i+1, d)
		}
		now = now.Add(RestartWindow + 1*sim.Microsecond)
	}
}

func time100us() sim.Duration { return 100 * sim.Microsecond }

// TestRestarterDeterminism: same seed, same lane name → identical delay
// sequences; a different lane diverges.
func TestRestarterDeterminism(t *testing.T) {
	mk := func(seed uint64, lane string) []sim.Duration {
		_, k := newKernel(t)
		p := New(k, Config{Seed: seed})
		r := p.restarter(lane)
		var ds []sim.Duration
		for i := 0; i < 5; i++ {
			d, ok := r.Next(sim.Time(0))
			if !ok {
				t.Fatal("quarantined inside default budget")
			}
			ds = append(ds, d)
		}
		return ds
	}
	a, b := mk(7, "kc.x"), mk(7, "kc.x")
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed+lane diverged at %d: %v vs %v", i, a, b)
		}
	}
	c := mk(7, "kc.y")
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Error("distinct lanes produced identical jitter sequences")
	}
}

// TestMetricsFollowKernelRegistry: the plane publishes its supervise.*
// counters into the kernel's metrics registry, so a harness that only
// calls SetMetrics sees the watchdog's work.
func TestMetricsFollowKernelRegistry(t *testing.T) {
	e, k := newKernel(t)
	reg := metrics.NewRegistry()
	k.SetMetrics(reg)
	New(k, Config{}).Install()
	root := k.NewTask("root", k.NewAddressSpace(), func(task *Task) int {
		task.Nanosleep(3 * Tick)
		return 0
	})
	k.Start(root, 0)
	if err := e.Run(); err != nil {
		t.Fatalf("engine: %v", err)
	}
	if n := reg.Counter("supervise.ticks").Value(); n == 0 {
		t.Error("supervise.ticks = 0 in the kernel's registry, want the watchdog's ticks")
	}
}
