package sim

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
)

func TestAdvanceMovesClock(t *testing.T) {
	e := New()
	var seen []Time
	e.Spawn("a", func(p *Proc) {
		seen = append(seen, e.Now())
		p.Advance(10 * Nanosecond)
		seen = append(seen, e.Now())
		p.Advance(5 * Microsecond)
		seen = append(seen, e.Now())
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []Time{0, Time(10 * Nanosecond), Time(10*Nanosecond + 5*Microsecond)}
	if len(seen) != len(want) {
		t.Fatalf("got %v, want %v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Errorf("step %d: got %v, want %v", i, seen[i], want[i])
		}
	}
}

func TestInterleavingIsDeterministicByTime(t *testing.T) {
	run := func() []string {
		e := New()
		var order []string
		e.Spawn("a", func(p *Proc) {
			order = append(order, "a0")
			p.Advance(30 * Nanosecond)
			order = append(order, "a30")
		})
		e.Spawn("b", func(p *Proc) {
			order = append(order, "b0")
			p.Advance(10 * Nanosecond)
			order = append(order, "b10")
			p.Advance(10 * Nanosecond)
			order = append(order, "b20")
		})
		if err := e.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return order
	}
	want := []string{"a0", "b0", "b10", "b20", "a30"}
	for trial := 0; trial < 20; trial++ {
		got := run()
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %v", trial, got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: got %v, want %v", trial, got, want)
			}
		}
	}
}

func TestEqualTimestampsAreFIFO(t *testing.T) {
	e := New()
	var order []string
	for _, name := range []string{"p1", "p2", "p3"} {
		name := name
		e.Spawn(name, func(p *Proc) {
			p.Advance(100 * Nanosecond)
			order = append(order, name)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []string{"p1", "p2", "p3"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("got %v, want %v", order, want)
		}
	}
}

func TestParkUnpark(t *testing.T) {
	e := New()
	var a *Proc
	resumedAt := Time(-1)
	a = e.Spawn("sleeper", func(p *Proc) {
		p.Park()
		resumedAt = e.Now()
	})
	e.Spawn("waker", func(p *Proc) {
		p.Advance(42 * Nanosecond)
		a.Unpark(3 * Nanosecond)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if want := Time(45 * Nanosecond); resumedAt != want {
		t.Errorf("resumed at %v, want %v", resumedAt, want)
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := New()
	e.Spawn("stuck", func(p *Proc) { p.Park() })
	err := e.Run()
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
	e.Shutdown()
	if n := e.LiveProcs(); n != 0 {
		t.Errorf("LiveProcs after Shutdown = %d, want 0", n)
	}
}

func TestAfterCallback(t *testing.T) {
	e := New()
	fired := Time(-1)
	e.After(7*Nanosecond, func() { fired = e.Now() })
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired != Time(7*Nanosecond) {
		t.Errorf("fired at %v, want 7ns", fired)
	}
}

func TestRunUntilStopsAtBoundary(t *testing.T) {
	e := New()
	var ticks []Time
	e.Spawn("ticker", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Advance(10 * Nanosecond)
			ticks = append(ticks, e.Now())
		}
	})
	if err := e.RunUntil(Time(35 * Nanosecond)); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if len(ticks) != 3 {
		t.Fatalf("got %d ticks (%v), want 3", len(ticks), ticks)
	}
	// Continue to completion.
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(ticks) != 10 {
		t.Fatalf("got %d ticks after full run, want 10", len(ticks))
	}
}

func TestStopFromProc(t *testing.T) {
	e := New()
	count := 0
	e.Spawn("runner", func(p *Proc) {
		for {
			p.Advance(Nanosecond)
			count++
			if count == 5 {
				e.Stop()
			}
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if count != 5 {
		t.Errorf("count = %d, want 5", count)
	}
	e.Shutdown()
}

func TestSpawnFromProc(t *testing.T) {
	e := New()
	var childTime Time
	e.Spawn("parent", func(p *Proc) {
		p.Advance(20 * Nanosecond)
		e.Spawn("child", func(c *Proc) {
			c.Advance(5 * Nanosecond)
			childTime = e.Now()
		})
		p.Advance(100 * Nanosecond)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if want := Time(25 * Nanosecond); childTime != want {
		t.Errorf("child finished at %v, want %v", childTime, want)
	}
}

func TestUnparkNotParkedPanics(t *testing.T) {
	e := New()
	done := make(chan struct{})
	var target *Proc
	target = e.Spawn("t", func(p *Proc) { p.Advance(Nanosecond) })
	e.Spawn("w", func(p *Proc) {
		defer close(done)
		defer func() {
			if recover() == nil {
				t.Error("Unpark on non-parked proc did not panic")
			}
			// Recovered inside the proc: continue so the engine can
			// finish cleanly.
		}()
		target.Unpark(0)
	})
	_ = e.Run()
	<-done
}

func TestTracerRecords(t *testing.T) {
	e := New()
	tr := NewTracer(100)
	e.SetTracer(tr)
	e.Spawn("a", func(p *Proc) { p.Advance(Nanosecond) })
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	evs := tr.Events()
	if len(evs) == 0 {
		t.Fatal("no trace events recorded")
	}
	if evs[0].Kind != "spawn" {
		t.Errorf("first event kind = %q, want spawn", evs[0].Kind)
	}
	last := evs[len(evs)-1]
	if last.Kind != "exit" {
		t.Errorf("last event kind = %q, want exit", last.Kind)
	}
}

func TestTracerRingEviction(t *testing.T) {
	tr := NewTracer(3)
	for i := 0; i < 10; i++ {
		tr.Add(Time(i), "k", "ev%d", i)
	}
	evs := tr.Events()
	if len(evs) != 3 {
		t.Fatalf("retained %d, want 3", len(evs))
	}
	if evs[0].Msg != "ev7" || evs[2].Msg != "ev9" {
		t.Errorf("ring content wrong: %v", evs)
	}
	if tr.Total() != 10 {
		t.Errorf("Total = %d, want 10", tr.Total())
	}
}

func TestAccessorsAndStringers(t *testing.T) {
	e := New()
	tr := NewTracer(10)
	e.SetTracer(tr)
	if e.Tracer() != tr {
		t.Error("Tracer accessor")
	}
	var p *Proc
	p = e.Spawn("acc", func(p *Proc) {
		if p.Name() != "acc" || p.ID() == 0 || p.Engine() != e {
			t.Error("proc accessors")
		}
		if e.Current() != p {
			t.Error("Current should be the running proc")
		}
		if p.Parked() || p.Dead() {
			t.Error("state predicates while running")
		}
		p.Advance(Nanosecond)
	})
	if e.PendingEvents() != 1 {
		t.Errorf("PendingEvents = %d, want 1", e.PendingEvents())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !p.Dead() {
		t.Error("Dead after exit")
	}
	if s := p.String(); s == "" {
		t.Error("proc String empty")
	}
	if e.Current() != nil {
		t.Error("Current after Run should be nil")
	}
}

func TestProcExit(t *testing.T) {
	e := New()
	after := false
	e.Spawn("quitter", func(p *Proc) {
		p.Advance(Nanosecond)
		p.Exit()
		after = true
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if after {
		t.Error("code ran after Exit")
	}
	if e.LiveProcs() != 0 {
		t.Error("proc not reaped after Exit")
	}
}

func TestTracerDumpAndEventString(t *testing.T) {
	tr := NewTracer(0) // unbounded
	tr.Add(Time(5*Nanosecond), "kind", "hello %d", 42)
	var buf bytes.Buffer
	if err := tr.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "kind") || !strings.Contains(out, "hello 42") {
		t.Errorf("dump = %q", out)
	}
}

func TestWaitQLen(t *testing.T) {
	e := New()
	var q WaitQ
	e.Spawn("w", func(p *Proc) { q.Wait(p) })
	e.Spawn("check", func(p *Proc) {
		p.Advance(Nanosecond)
		if q.Len() != 1 {
			t.Errorf("Len = %d, want 1", q.Len())
		}
		q.WakeOne(0)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestTimeHelpers(t *testing.T) {
	if FromUS(1.5) != 1500*Nanosecond {
		t.Error("FromUS")
	}
	if (2 * Second).Seconds() != 2 {
		t.Error("Duration.Seconds")
	}
	if Time(3*Second).Seconds() != 3 {
		t.Error("Time.Seconds")
	}
	if Time(5*Nanosecond).String() == "" {
		t.Error("Time.String")
	}
}

// pastClockNoop is the callback After is asked to schedule past the end
// of virtual time; its name appears in the panic.
func pastClockNoop() {}

// TestDueTimePastClockPanics: each entry point that schedules a due
// time refuses one that overflows the virtual clock, instead of
// wrapping it, with a panic that names the proc or the callback and the
// due time; Run returns it as an error when panics are trapped.
func TestDueTimePastClockPanics(t *testing.T) {
	const huge = Duration(1<<63 - 1)
	for _, tc := range []struct {
		name string
		run  func(e *Engine, p *Proc)
		want string
	}{
		{"Advance", func(e *Engine, p *Proc) { p.Advance(huge) },
			"proc caller#1 Advance: due time 1us + "},
		{"Unpark", func(e *Engine, p *Proc) {
			parked := &spawned{name: "parked", fn: func(q *Proc) { q.Park() }}
			e.Start(&parked.Proc, parked, 0)
			p.Advance(Microsecond)
			parked.Unpark(huge)
		}, "proc parked#2 Unpark: due time 2us + "},
		{"After", func(e *Engine, p *Proc) { e.After(huge, pastClockNoop) },
			"callback repro/internal/sim.pastClockNoop: due time 1us + "},
		{"Start", func(e *Engine, p *Proc) {
			late := &spawned{name: "late", fn: func(*Proc) {}}
			e.Start(&late.Proc, late, huge)
		}, "Start of late: due time 1us + "},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := New()
			e.SetTrapPanics(true)
			e.Spawn("caller", func(p *Proc) {
				p.Advance(Microsecond)
				tc.run(e, p)
				t.Error("scheduled past the end of virtual time without a panic")
			})
			err := e.Run()
			if err == nil || !strings.Contains(err.Error(), tc.want) ||
				!strings.Contains(err.Error(), "is past the end of virtual time") {
				t.Errorf("Run = %v, want a panic containing %q", err, tc.want)
			}
			e.Shutdown()
		})
	}
}

// TestStartReusesReturnedProc: storage whose proc's body has returned
// starts again under a new id and name, while starting a proc that is
// still live panics.
func TestStartReusesReturnedProc(t *testing.T) {
	e := New()
	s := &spawned{name: "first", fn: func(p *Proc) { p.Advance(Microsecond) }}
	e.Start(&s.Proc, s, 0)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	firstID := s.ID()
	var ran string
	next := &spawned{name: "second", fn: func(p *Proc) { ran = p.String() }}
	e.Start(&s.Proc, next, 0)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("second#%d", firstID+1); ran != want {
		t.Errorf("restarted proc ran as %q, want %q", ran, want)
	}

	parked := &spawned{name: "parked", fn: func(p *Proc) { p.Park() }}
	e.Start(&parked.Proc, parked, 0)
	e.RunUntil(e.Now())
	func() {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "Start of live proc parked#") {
				t.Errorf("Start of a parked proc: recover() = %v, want the live-proc panic", r)
			}
		}()
		e.Start(&parked.Proc, parked, 0)
	}()
	e.Shutdown()
}
