package sim

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// chooseFn adapts a function to the Chooser interface.
type chooseFn func(now Time, cands []Candidate) int

func (f chooseFn) Choose(now Time, cands []Candidate) int { return f(now, cands) }

// spawnOrderProbes spawns n procs at the same instant, each recording
// its name.
func spawnOrderProbes(e *Engine, n int, order *[]string) {
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("p%d", i)
		e.Spawn(name, func(p *Proc) {
			*order = append(*order, name)
		})
	}
}

func TestChooserDefaultIndexZeroMatchesFIFO(t *testing.T) {
	var fifo []string
	e := New()
	spawnOrderProbes(e, 3, &fifo)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}

	var picked []string
	e2 := New()
	decisions := 0
	e2.SetChooser(chooseFn(func(_ Time, cands []Candidate) int {
		decisions++
		// Candidates must arrive in ascending seq order with proc names.
		for i := 1; i < len(cands); i++ {
			if cands[i].Seq <= cands[i-1].Seq {
				t.Errorf("candidates not seq-sorted: %v", cands)
			}
		}
		for _, c := range cands {
			if name := c.Proc(); name != "p0" && name != "p1" && name != "p2" {
				t.Errorf("candidate %d names proc %q, want p0, p1 or p2", c.Seq, name)
			}
		}
		return 0 // index 0 == the FIFO default
	}))
	spawnOrderProbes(e2, 3, &picked)
	if err := e2.Run(); err != nil {
		t.Fatal(err)
	}
	if strings.Join(fifo, ",") != strings.Join(picked, ",") {
		t.Errorf("chooser(0) order %v differs from FIFO order %v", picked, fifo)
	}
	if decisions == 0 {
		t.Error("no decision points for 3 same-instant procs")
	}
}

func TestChooserReversesTieOrder(t *testing.T) {
	var order []string
	e := New()
	e.SetChooser(chooseFn(func(_ Time, cands []Candidate) int {
		return len(cands) - 1 // always run the newest schedule
	}))
	spawnOrderProbes(e, 3, &order)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(order, ","), "p2,p1,p0"; got != want {
		t.Errorf("order = %s, want %s", got, want)
	}
}

func TestChooserOutOfRangeFallsBackToFIFO(t *testing.T) {
	var order []string
	e := New()
	e.SetChooser(chooseFn(func(_ Time, cands []Candidate) int { return 99 }))
	spawnOrderProbes(e, 3, &order)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(order, ","), "p0,p1,p2"; got != want {
		t.Errorf("order = %s, want %s", got, want)
	}
}

func TestChooserSingleCandidateNotConsulted(t *testing.T) {
	e := New()
	e.SetChooser(chooseFn(func(_ Time, cands []Candidate) int {
		if len(cands) < 2 {
			t.Errorf("chooser consulted with %d candidate(s)", len(cands))
		}
		return 0
	}))
	e.Spawn("solo", func(p *Proc) {
		p.Advance(Microsecond)
		p.Advance(Microsecond)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestChooserPreservesEventSet(t *testing.T) {
	// Rotating the tie order must neither lose nor duplicate events:
	// every proc runs exactly once per Advance round.
	runs := map[string]int{}
	e := New()
	pick := 0
	e.SetChooser(chooseFn(func(_ Time, cands []Candidate) int {
		pick++
		return pick % len(cands)
	}))
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("w%d", i)
		e.Spawn(name, func(p *Proc) {
			for r := 0; r < 5; r++ {
				runs[name]++
				p.Advance(Microsecond)
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for name, n := range runs {
		if n != 5 {
			t.Errorf("%s ran %d rounds, want 5", name, n)
		}
	}
}

func TestTrapPanicsReturnsErrorFromRun(t *testing.T) {
	e := New()
	e.SetTrapPanics(true)
	e.Spawn("bystander", func(p *Proc) { p.Park() })
	e.Spawn("bomb", func(p *Proc) {
		p.Advance(Microsecond)
		panic("invariant violated")
	})
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "invariant violated") {
		t.Fatalf("Run() = %v, want trapped panic", err)
	}
	if e.PanicErr() == nil {
		t.Error("PanicErr() = nil after trapped panic")
	}
	e.Shutdown() // reap the bystander
}

func TestTrapPanicsOffStillKills(t *testing.T) {
	// ErrKilled (Shutdown) must not be affected by trap mode.
	e := New()
	e.SetTrapPanics(true)
	e.Spawn("parked", func(p *Proc) { p.Park() })
	if err := e.Run(); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("Run() = %v, want deadlock", err)
	}
	e.Shutdown()
	if e.LiveProcs() != 0 {
		t.Errorf("LiveProcs = %d after Shutdown", e.LiveProcs())
	}
	if e.PanicErr() != nil {
		t.Errorf("PanicErr = %v, want nil (kill is not a panic)", e.PanicErr())
	}
}
