package uctx

import (
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/kernel"
	"repro/internal/leakcheck"
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

// TestShutdownKillsParkedContexts: Shutdown reaps contexts no proc
// carries any more. One context is parked inside Transfer, the one it
// transferred to inside Yield, and one was never stepped; the carrier
// sleeps past the end of the run. After Shutdown the two started
// contexts are done, and no goroutine is left.
func TestShutdownKillsParkedContexts(t *testing.T) {
	base := leakcheck.Baseline()
	e := sim.New()
	k := kernel.New(e, arch.Wallaby())
	b := New("b", func(c *Context) {
		for {
			c.Yield(nil)
		}
	})
	a := New("a", func(c *Context) {
		carrier := c.Carrier()
		c.Save()
		c.Transfer(b, carrier)
		t.Error("a resumed after the run was abandoned")
	})
	idle := New("idle", func(*Context) {})
	task := k.NewTask("carrier", k.NewAddressSpace(), func(task *kernel.Task) int {
		if ev := a.Step(task); ev.Ctx != b {
			t.Errorf("Step of a reported %v, want b's yield", ev.Ctx)
		}
		task.Nanosleep(sim.Second)
		return 0
	})
	k.Start(task, 0)
	if err := e.RunUntil(sim.Time(0).Add(sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	e.Shutdown()
	if !a.Done() || !b.Done() || idle.Done() {
		t.Errorf("done after Shutdown: a %v, b %v, never-stepped %v; want true, true, false", a.Done(), b.Done(), idle.Done())
	}
	leakcheck.Check(t, base)
}
