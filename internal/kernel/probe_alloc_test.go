package kernel

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/probe"
	"repro/internal/sim"
)

// The probe plane's cost contract: an unattached attach point costs one
// nil/length check at the fire site and allocates nothing, and even an
// attached observation-only program dispatches allocation-free (the fire
// contexts are recycled from a fixed pool). These tests pin both halves
// on a workload that crosses the dense attach sites in steady state —
// syscall enter/exit, futex wait/timeout/table churn, timer fires and
// the dispatch path — complementing the getpid pins in alloc_test.go.

// futexTimeoutSpinner parks one task in back-to-back timed futex waits
// that always time out: each cycle fires syscall:enter/exit,
// futex:wait, futex:timeout, timer:fire and sched:dispatch, with pooled
// timers keeping the path alloc-free. With pinEntry a second task sleeps
// on the word forever so its WaitQueue entry survives between cycles;
// without it every cycle creates the word's table entry and drops it
// again (the create/drop churn the table's free list recycles).
func futexTimeoutSpinner(pinEntry bool) (*sim.Engine, *Kernel, func()) {
	e := sim.New()
	k := New(e, arch.Wallaby())
	space := k.NewAddressSpace()
	addr, err := space.Mmap(8, semProt, "spin-word", true, nil)
	if err != nil {
		panic(err)
	}
	if pinEntry {
		parked := k.NewTask("parked", space, func(t *Task) int {
			t.FutexWait(addr, 0) // never woken: pins the table entry
			return 0
		})
		parked.SetAffinity(0)
		k.Start(parked, 0)
	}
	spinner := k.NewTask("spinner", space, func(t *Task) int {
		for {
			if werr := t.FutexWaitTimeout(addr, 0, 5*sim.Microsecond); werr != ErrTimedOut {
				panic(werr)
			}
		}
	})
	spinner.SetAffinity(1)
	k.Start(spinner, 0)
	next := e.Now()
	return e, k, func() {
		next = next.Add(200 * sim.Microsecond)
		if err := e.RunUntil(next); err != nil {
			panic(err)
		}
	}
}

func TestProbeUnattachedSitesZeroAllocs(t *testing.T) {
	e, k, step := futexTimeoutSpinner(true)
	if k.Probes().Attached(probe.PFutexWait) {
		t.Fatal("bare kernel has futex probes attached")
	}
	step() // absorb one-time growth: first dispatch, timer pool fill
	if got := testing.AllocsPerRun(50, step); got != 0 {
		t.Errorf("unattached futex-timeout loop allocates %.1f per chunk, want 0", got)
	}
	e.Stop()
	e.Shutdown()
}

// TestProbeObserveAttachedZeroAllocs pins attached observe-only
// dispatch at zero allocations, for a custom program and for the stock
// probes the chaos workload attaches (a fire counter and an SLO
// histogram, whose registry entries appear at their first fire).
func TestProbeObserveAttachedZeroAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		// attach attaches the observers and returns their fire count.
		attach func(t *testing.T, r *probe.Registry) func() uint64
	}{
		{"custom", func(t *testing.T, r *probe.Registry) func() uint64 {
			var fired uint64
			r.Attach("pin", func(c *probe.Ctx) probe.Verdict {
				fired++
				return probe.Verdict{}
			}, probe.PSyscallEnter, probe.PSyscallExit, probe.PFutexWait,
				probe.PFutexTimeout, probe.PTimerFire,
				probe.PSchedDispatch, probe.PSchedSwitch)
			return func() uint64 { return fired }
		}},
		{"stock", func(t *testing.T, r *probe.Registry) func() uint64 {
			specs, err := probe.ParseSpecs("count:points=syscall:enter+futex:wait+sched:switch;slo:p99_us=20000")
			if err != nil {
				t.Fatal(err)
			}
			count := probe.AttachSpecs(r, specs)[0].Prog
			return func() uint64 { return count.Agg().Counter("fires.syscall:enter").Value() }
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, k, step := futexTimeoutSpinner(true)
			fired := tc.attach(t, k.Probes())
			step()
			if fired() == 0 {
				t.Fatal("observer never fired — the workload misses every attach site")
			}
			before := fired()
			if got := testing.AllocsPerRun(50, step); got != 0 {
				t.Errorf("observe-only probed loop allocates %.1f per chunk, want 0", got)
			}
			if fired() == before {
				t.Error("observer stopped firing during the measured chunks")
			}
			e.Stop()
			e.Shutdown()
		})
	}
}
