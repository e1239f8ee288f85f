package blt

import (
	"runtime"
	"testing"

	"repro/internal/arch"
	"repro/internal/kernel"
	"repro/internal/leakcheck"
	"repro/internal/probe"
	"repro/internal/sim"
)

// The user-level switch paths allocate nothing in steady state: with no
// tracer installed no trace argument is boxed, and a direct UC handoff
// needs no per-switch state.

// switchLoop spawns n BLTs running body on a one-scheduler pool and
// returns a step that runs the engine for a fixed slice of virtual time.
func switchLoop(t *testing.T, n int, body Body) (*sim.Engine, func()) {
	t.Helper()
	e, _, step := switchLoopKernel(t, n, body)
	return e, step
}

// switchLoopKernel is switchLoop that also returns the kernel.
func switchLoopKernel(t *testing.T, n int, body Body) (*sim.Engine, *kernel.Kernel, func()) {
	t.Helper()
	e := sim.New()
	k := kernel.New(e, arch.Wallaby())
	root := k.NewTask("root", k.NewAddressSpace(), func(task *kernel.Task) int {
		pool, err := NewPool(task, Config{
			ProgCores: []int{0}, SyscallCores: []int{1, 2}, Idle: BusyWait, SwitchTLS: true,
		})
		if err != nil {
			t.Error(err)
			return 1
		}
		for i := 0; i < n; i++ {
			if _, err := pool.Spawn(body, SpawnOpts{Scheduler: 0}); err != nil {
				t.Error(err)
				return 1
			}
		}
		task.Wait() // the bodies never return
		return 0
	})
	k.Start(root, 0)
	next := e.Now()
	return e, k, func() {
		next = next.Add(200 * sim.Microsecond)
		if err := e.RunUntil(next); err != nil {
			t.Fatal(err)
		}
	}
}

func pinZeroAllocs(t *testing.T, what string, n int, body Body) {
	e, step := switchLoop(t, n, body)
	step() // absorb one-time growth: spawns, first dispatches, queue rings
	if got := testing.AllocsPerRun(50, step); got != 0 {
		t.Errorf("%s allocates %.1f per slice, want 0", what, got)
	}
	e.Stop()
	e.Shutdown()
}

// TestULTYieldZeroAllocs also checks that Shutdown reaps both UCs: the
// one a scheduler runs, through the scheduler's kill, and the parked
// one.
func TestULTYieldZeroAllocs(t *testing.T) {
	base := leakcheck.Baseline()
	yields := 0
	pinZeroAllocs(t, "ULT yield", 2, func(b *BLT) int {
		b.Decouple()
		for {
			b.Yield()
			yields++
		}
	})
	if yields == 0 {
		t.Error("no BLT ever yielded")
	}
	leakcheck.Check(t, base)
}

// TestKCHostHoldsOneGoroutine: a KC whose BLT idles decoupled holds
// one goroutine, its task's runner; the trampoline runs on the KC's
// events. With n BLTs decoupled, the count is one goroutine per KC and
// per UC, plus the scheduler and the root.
func TestKCHostHoldsOneGoroutine(t *testing.T) {
	base := leakcheck.Baseline()
	const n = 4
	e, step := switchLoop(t, n, func(b *BLT) int {
		b.Decouple()
		for {
			b.Yield()
		}
	})
	step()
	if got, want := runtime.NumGoroutine()-base, n+n+1+1; got != want {
		t.Errorf("%d goroutines for %d idle KC hosts, want %d (KCs, UCs, scheduler, root)", got, n, want)
	}
	e.Stop()
	e.Shutdown()
	leakcheck.Check(t, base)
}

func TestCoupleDecoupleZeroAllocs(t *testing.T) {
	trips := 0
	pinZeroAllocs(t, "couple/decouple round trip", 1, func(b *BLT) int {
		for {
			b.Decouple()
			if err := b.Couple(); err != nil {
				t.Error(err)
				return 1
			}
			trips++
		}
	})
	if trips == 0 {
		t.Error("no couple/decouple round trip completed")
	}
}

// TestBusyWaitSharedCoreZeroAllocs: the BUSYWAIT idle loop runs as a
// spin continuation without allocating. Eight decoupled BLTs yield
// while their eight KCs idle four to a syscall core, so every idle
// sched_yield switches KCs through its park stage.
func TestBusyWaitSharedCoreZeroAllocs(t *testing.T) {
	yields := 0
	e, k, step := switchLoopKernel(t, 8, func(b *BLT) int {
		b.Decouple()
		for {
			b.Yield()
			yields++
		}
	})
	step()
	switches := k.ContextSwitches()
	if got := testing.AllocsPerRun(50, step); got != 0 {
		t.Errorf("BUSYWAIT idle loops allocate %.1f per slice, want 0", got)
	}
	// Count sched_yield over one more slice, after the pin, so that the
	// pin measures the path with no program attached.
	spins := 0
	k.Probes().Attach("count-sched_yield", func(c *probe.Ctx) probe.Verdict {
		if c.Site == "sched_yield" {
			spins++
		}
		return probe.Verdict{}
	}, probe.PSyscallEnter)
	step()
	if yields == 0 || k.ContextSwitches() == switches || spins == 0 {
		t.Errorf("idle KCs did not switch: %d yields, %d kernel switches, %d sched_yields",
			yields, k.ContextSwitches()-switches, spins)
	}
	e.Stop()
	e.Shutdown()
}
