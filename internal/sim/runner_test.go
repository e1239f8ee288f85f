package sim

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/leakcheck"
)

// runWithin runs e.Run on another goroutine and fails t if it has not
// returned within a few seconds: a runner that waits for a message no
// one will send hangs the engine instead of failing it.
func runWithin(t *testing.T, e *Engine) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- e.Run() }()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return: the engine is deadlocked")
		return nil
	}
}

// spawnAfter is Spawn with the first resumption delayed by d.
func spawnAfter(e *Engine, name string, d Duration, fn func(*Proc)) *Proc {
	s := &spawned{name: name, fn: fn}
	e.Start(&s.Proc, s, d)
	return &s.Proc
}

// TestRunnerRecycledAcrossSpawns: 1,000 spawn→exit cycles in one Run
// start no goroutine after the first, because each child takes the
// runner the previous one left on the idle list, and Run leaves none
// behind.
func TestRunnerRecycledAcrossSpawns(t *testing.T) {
	base := leakcheck.Baseline()
	e := New()
	var first *Coro
	maxGo, cycles := 0, 0
	e.Spawn("parent", func(p *Proc) {
		start := runtime.NumGoroutine()
		for i := 0; i < 1000; i++ {
			child := e.Spawn("child", func(c *Proc) { c.Advance(Nanosecond) })
			if first == nil {
				first = child.r
			} else if child.r != first {
				t.Errorf("cycle %d: the child got a new runner", i)
				return
			}
			for !child.Dead() {
				p.Advance(Microsecond)
			}
			if d := runtime.NumGoroutine() - start; d > maxGo {
				maxGo = d
			}
			cycles++
		}
	})
	if err := runWithin(t, e); err != nil {
		t.Fatal(err)
	}
	if cycles != 1000 {
		t.Fatalf("%d cycles ran, want 1000", cycles)
	}
	if maxGo > 2 {
		t.Errorf("goroutine count rose by %d during the cycles, want at most 2", maxGo)
	}
	if e.idle != nil || e.nIdle != 0 {
		t.Errorf("idle list not reaped by Run: %d runners", e.nIdle)
	}
	leakcheck.Check(t, base)
}

// TestRunnerStartsSpawnInPlace: a callback due at the instant a proc
// exits spawns a proc; the exit's own dispatch chain reaches its first
// resume, so it runs in place on the exited proc's runner, and Run
// returns. A runner that sent its own first resume would deadlock here.
func TestRunnerStartsSpawnInPlace(t *testing.T) {
	base := leakcheck.Baseline()
	e := New()
	var b *Proc
	goA, goB := 0, 0
	a := e.Spawn("a", func(p *Proc) {
		goA = runtime.NumGoroutine()
		e.After(0, func() {
			b = e.Spawn("b", func(*Proc) { goB = runtime.NumGoroutine() })
		})
	})
	if err := runWithin(t, e); err != nil {
		t.Fatal(err)
	}
	if b == nil || !b.Dead() || goB == 0 {
		t.Fatal("the proc spawned at a's exit did not run")
	}
	if b.r != a.r {
		t.Error("b did not run on a's runner")
	}
	if goB != goA {
		t.Errorf("b ran with %d goroutines, a with %d: the spawn started a goroutine", goB, goA)
	}
	leakcheck.Check(t, base)
}

// TestRunnerDroppedOnKillAndPanic: a proc killed by Exit or by Shutdown,
// and a proc whose panic is trapped, do not return their runner to the
// idle list, while a proc that returns does; a spawn after a trapped
// panic still runs, and no goroutine is left.
func TestRunnerDroppedOnKillAndPanic(t *testing.T) {
	base := leakcheck.Baseline()
	e := New()
	var idle []int32
	note := func() { idle = append(idle, e.nIdle) }
	e.Spawn("exits", func(p *Proc) { p.Exit() })
	e.After(Microsecond, note)
	spawnAfter(e, "returns", 2*Microsecond, func(*Proc) {})
	e.After(3*Microsecond, note)
	e.Spawn("parked", func(p *Proc) { p.Park() })
	if err := runWithin(t, e); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("Run = %v, want the parked proc's deadlock", err)
	}
	if len(idle) != 2 || idle[0] != 0 || idle[1] != 1 {
		t.Errorf("idle runners after Exit, after a return = %v, want [0 1]", idle)
	}
	e.Shutdown()
	if e.idle != nil || e.nIdle != 0 {
		t.Errorf("Shutdown's kill left %d idle runners", e.nIdle)
	}
	leakcheck.Check(t, base)

	e.SetTrapPanics(true)
	e.Spawn("panics", func(*Proc) { panic("boom") })
	if err := runWithin(t, e); err == nil || !strings.Contains(err.Error(), "panics#") {
		t.Fatalf("Run = %v, want the trapped panic", err)
	}
	ran := false
	e.Spawn("after", func(*Proc) { ran = true })
	runWithin(t, e)
	if !ran {
		t.Error("a spawn after the trapped panic did not run")
	}
	leakcheck.Check(t, base)
}

// TestRunnerSurvivesPanicInExitChain: a callback that panics in the
// dispatch chain of a proc's exit, after the runner went idle, is
// trapped as that proc's panic; the runner keeps serving, so Run's reap
// and a later spawn both complete.
func TestRunnerSurvivesPanicInExitChain(t *testing.T) {
	base := leakcheck.Baseline()
	e := New()
	e.SetTrapPanics(true)
	e.Spawn("exiting", func(*Proc) {
		e.After(0, func() { panic("callback") })
	})
	if err := runWithin(t, e); err == nil || !strings.Contains(err.Error(), "exiting#1 panicked: callback") {
		t.Fatalf("Run = %v, want the callback's panic on the exiting proc", err)
	}
	ran := false
	e.Spawn("after", func(*Proc) { ran = true })
	runWithin(t, e)
	if !ran {
		t.Error("a spawn after the panic did not run")
	}
	leakcheck.Check(t, base)
}

// TestRunnerIdleListBounded: a burst of 2·maxIdle exits at one instant
// leaves maxIdle runners idle; the goroutines of the rest end at once
// instead of waiting for Run to return.
func TestRunnerIdleListBounded(t *testing.T) {
	base := leakcheck.Baseline()
	e := New()
	for i := 0; i < 2*maxIdle; i++ {
		e.Spawn("burst", func(*Proc) {})
	}
	var nIdle int32
	extra := 0
	e.After(Microsecond, func() {
		nIdle = e.nIdle
		// The idle runners, the runner dispatching this callback and
		// the goroutine inside runWithin.
		want := base + maxIdle + 2
		for end := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > want && time.Now().Before(end); {
			time.Sleep(time.Millisecond)
		}
		extra = runtime.NumGoroutine() - want
	})
	if err := runWithin(t, e); err != nil {
		t.Fatal(err)
	}
	if nIdle != maxIdle {
		t.Errorf("%d runners idle after %d exits, want %d", nIdle, 2*maxIdle, maxIdle)
	}
	if extra > 0 {
		t.Errorf("%d goroutines of dropped runners still alive", extra)
	}
	leakcheck.Check(t, base)
}
