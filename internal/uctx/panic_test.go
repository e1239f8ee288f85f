package uctx

import (
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/kernel"
	"repro/internal/sim"
)

// A panic on a context's goroutine must reach the goroutine that stepped
// the context, where the engine's proc wrapper can trap it (or, for
// sim.ErrKilled, reap the proc) instead of crashing the process.

func TestPanicForwardedToTrappingEngine(t *testing.T) {
	e := sim.New()
	e.SetTrapPanics(true)
	k := kernel.New(e, arch.Wallaby())
	c := New("bomb", func(*Context) { panic("boom in uc") })
	task := k.NewTask("carrier", k.NewAddressSpace(), func(task *kernel.Task) int {
		c.Step(task)
		t.Error("Step returned past a panicking context")
		return 0
	})
	k.Start(task, 0)
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "boom in uc") {
		t.Fatalf("Run = %v, want the trapped panic", err)
	}
	if !c.Done() {
		t.Error("panicked context not done")
	}
}

func TestPanicForwardedShutdownMidCharge(t *testing.T) {
	e := sim.New()
	k := kernel.New(e, arch.Wallaby())
	space := k.NewAddressSpace()
	c := New("looper", func(c *Context) {
		for {
			c.Carrier().Charge(sim.Microsecond)
		}
	})
	stepper := k.NewTask("stepper", space, func(task *kernel.Task) int {
		c.Step(task)
		return 0
	})
	// A second task keeps an event due at every step, so the looper's
	// Charge yields to the engine instead of advancing the clock in place.
	other := k.NewTask("other", space, func(task *kernel.Task) int {
		for {
			task.Charge(sim.Microsecond)
		}
	})
	stepper.SetAffinity(0)
	other.SetAffinity(1)
	k.Start(stepper, 0)
	k.Start(other, 0)
	if err := e.RunUntil(sim.Time(0).Add(50 * sim.Microsecond)); err != nil {
		t.Fatal(err)
	}
	e.Shutdown() // kills the stepper's proc while the looper waits in Charge
	if n := e.LiveProcs(); n != 0 {
		t.Errorf("%d procs alive after Shutdown", n)
	}
	if !c.Done() {
		t.Error("context killed with its carrier is not done")
	}
}
