package bench

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/kernel"
	"repro/internal/leakcheck"
	"repro/internal/mem"
	"repro/internal/probe"
	"repro/internal/sim"
)

// TestScaleRowsLeakNothing runs the quick scale rows, and the chaos
// ones, at reduced size on both machines: after every row the
// goroutine count is back at its baseline, so no proc is left live
// either (see leakcheck). Spawn-join recycles proc runners through the
// engine's idle list, which the end of each run must reap. The fan-in
// rows also fill the stack and heap split of their footprint.
func TestScaleRowsLeakNothing(t *testing.T) {
	if _, err := scaleSpawnJoin(arch.Wallaby(), 256, false); err != nil {
		t.Fatal(err)
	}
	base := leakcheck.Baseline()
	for _, m := range arch.Machines() {
		rows := []struct {
			name string
			run  func() (ScaleRow, error)
		}{
			{"spawn-join", func() (ScaleRow, error) { return scaleSpawnJoin(m, 2_000, false) }},
			{"fanin-wakeall", func() (ScaleRow, error) { return scaleFanIn(m, 256) }},
			{"futex-churn", func() (ScaleRow, error) { return scaleChurn(m, 200) }},
			{"spawn-join-supervised", func() (ScaleRow, error) { return scaleSpawnJoin(m, 1_000, true) }},
			{"chaos-fanin", func() (ScaleRow, error) { return chaosFanIn(m, 128) }},
		}
		for _, r := range rows {
			row, err := r.run()
			if err != nil {
				t.Fatalf("%s %s: %v", m.Name, r.name, err)
			}
			leakcheck.Check(t, base)
			if r.name == "fanin-wakeall" && (row.IdleStack == 0 || row.IdleHeap == 0) {
				t.Errorf("%s fan-in footprint split: stack %d B, heap %d B, want both positive",
					m.Name, row.IdleStack, row.IdleHeap)
			}
		}
	}
}

// TestChaosWaiterBackoffStopsAtCap: a chaos-at-scale fan-in waiter that
// no one wakes times out after 10 µs, then after timeouts doubling up to
// chaosWaitMax and no further. The doubling used to run one step past
// the cap, to 1.28 ms.
func TestChaosWaiterBackoffStopsAtCap(t *testing.T) {
	var last sim.Time
	var widest sim.Duration
	fires := 0
	err := RunKernel(arch.Wallaby(), func(k *kernel.Kernel, root *kernel.Task) {
		space := root.Space()
		addr, err := space.Mmap(8, mem.ProtRead|mem.ProtWrite, "waiter-word", true, nil)
		if err != nil {
			t.Error(err)
			return
		}
		k.Probes().Attach("waiter-timeouts", func(c *probe.Ctx) probe.Verdict {
			if c.Task != nil && c.Task.Name() == "cfw" {
				if fires > 0 && c.Now.Sub(last) > widest {
					widest = c.Now.Sub(last)
				}
				last = c.Now
				fires++
			}
			return probe.Verdict{}
		}, probe.PFutexTimeout)
		w := root.Clone("cfw", kernel.PThreadFlags, chaosWaiter(addr))
		root.Nanosleep(10 * sim.Millisecond)
		space.WriteU64(addr, 1, nil)
		root.FutexWake(addr, 1)
		if root.Join(w) != 0 {
			t.Error("waiter exited non-zero")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d waiter timeouts, widest gap %v", fires, widest)
	if widest <= chaosWaitMax/2 {
		t.Fatalf("widest gap between timeouts = %v: the waiter never reached its cap", widest)
	}
	if widest > chaosWaitMax+sim.Microsecond {
		t.Errorf("widest gap between timeouts = %v, want <= %v", widest, chaosWaitMax)
	}
}
