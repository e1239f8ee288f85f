package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/leakcheck"
)

// TestProcSizePin: a Proc is 104 B, inside Go's 112-byte size class,
// and the spin state rides in space it already has — the step in its
// event's fn slot, the flags beside the one-byte state. Growing it past
// 112 B moves every proc to the next class, which the scale workload,
// with a million procs, pays in memory.
func TestProcSizePin(t *testing.T) {
	if got := unsafe.Sizeof(Proc{}); got > 104 {
		t.Errorf("unsafe.Sizeof(Proc{}) = %d, want <= 104", got)
	}
}

// dispatchRec is one entry of a dispatch trace: a proc resuming, with
// the sequence number of its resume event, or a callback running.
type dispatchRec struct {
	at   Time
	seq  uint64
	proc string
}

// spinWorld is the differential scenario behind
// TestSpinMatchesGoroutineLoop. Spinner procs wait for tokens that a
// producer callback hands out; each wait polls with Advance and parks
// on every third poll until a waker proc unparks it. The same world
// runs once with every wait as a Spin and once as the goroutine loop
// written below, and records everything that decides the schedule.
type spinWorld struct {
	e       *Engine
	rounds  int
	tokens  []int
	issued  []int
	waiting []bool
	parked  []*Proc
	done    int

	trace      []dispatchRec
	decisions  []int
	fast, slow int // poll resumes through Advance's fast and slow paths
	parks      int
	cuts       int // RunUntil returns that found a wait in progress
}

// resumed records a resume of p; before is the engine's sequence
// counter when p advanced (so an unchanged counter means the fast
// path), or ^0 after a Park.
func (w *spinWorld) resumed(p *Proc, before uint64) {
	w.trace = append(w.trace, dispatchRec{w.e.now, p.ev.seq, p.Name()})
	switch {
	case before == ^uint64(0):
	case w.e.seq == before:
		w.fast++
	default:
		w.slow++
	}
}

// pollPeriod is spinner i's poll period: spinner 0 polls finely (its polls
// mostly take the fast path), the others on a coarse grid that ties
// with the waker and the producer.
func pollPeriod(i int) Duration {
	if i == 0 {
		return 100 * Nanosecond
	}
	return Duration(i) * Microsecond
}

// loopWait is the wait as a plain goroutine loop.
func (w *spinWorld) loopWait(p *Proc, i int, n *int) {
	for w.tokens[i] == 0 {
		before := w.e.seq
		p.Advance(pollPeriod(i))
		w.resumed(p, before)
		*n++
		if *n%3 == 0 {
			w.parked = append(w.parked, p)
			w.parks++
			p.Park()
			w.resumed(p, ^uint64(0))
		}
	}
}

// spinWait is the same wait as a Spin: each pass ends in one
// suspension, and what follows it runs at the start of the next pass.
func (w *spinWorld) spinWait(p *Proc, i int, n *int) {
	const (
		test = iota
		polled
		unparked
	)
	phase := test
	var before uint64
	p.Spin(func() bool {
		for {
			switch phase {
			case test:
				if w.tokens[i] > 0 {
					return true
				}
				before = w.e.seq
				phase = polled
				p.Advance(pollPeriod(i))
				return false
			case polled:
				w.resumed(p, before)
				*n++
				phase = test
				if *n%3 == 0 {
					w.parked = append(w.parked, p)
					w.parks++
					phase = unparked
					p.Park()
					return false
				}
			case unparked:
				w.resumed(p, ^uint64(0))
				phase = test
			}
		}
	})
}

// runSpinWorld runs the scenario with n spinners, through Spin or the
// goroutine loop, under a seeded random chooser when choose is set.
func runSpinWorld(t *testing.T, useSpin, choose bool, n int) *spinWorld {
	t.Helper()
	w := &spinWorld{e: New(), rounds: 20, tokens: make([]int, n), issued: make([]int, n), waiting: make([]bool, n)}
	e := w.e
	if choose {
		r := NewRNG(7)
		e.SetChooser(chooseFn(func(_ Time, cands []Candidate) int {
			i := r.Intn(len(cands))
			w.decisions = append(w.decisions, i)
			return i
		}))
	}
	for i := 0; i < n; i++ {
		i := i
		e.Spawn(fmt.Sprintf("spin%d", i), func(p *Proc) {
			polls := 0
			for r := 0; r < w.rounds; r++ {
				w.waiting[i] = true
				if useSpin {
					w.spinWait(p, i, &polls)
				} else {
					w.loopWait(p, i, &polls)
				}
				w.waiting[i] = false
				w.resumed(p, ^uint64(0))
				w.tokens[i]--
				p.Advance(Duration(i+1) * 500 * Nanosecond)
			}
			w.done++
		})
	}
	e.Spawn("waker", func(p *Proc) {
		r := NewRNG(3)
		for w.done < n {
			p.Advance(3 * Microsecond)
			w.resumed(p, ^uint64(0))
			for _, q := range w.parked {
				q.Unpark(Duration(r.Intn(3)) * Microsecond)
			}
			w.parked = w.parked[:0]
		}
	})
	r := NewRNG(5)
	var produce func()
	produce = func() {
		w.trace = append(w.trace, dispatchRec{e.now, 0, "producer"})
		var open []int
		for i, got := range w.issued {
			if got < w.rounds {
				open = append(open, i)
			}
		}
		if len(open) == 0 {
			return
		}
		i := open[r.Intn(len(open))]
		w.issued[i]++
		w.tokens[i]++
		e.After(Duration(1+r.Intn(4))*Microsecond, produce)
	}
	e.After(2*Microsecond, produce)

	// Drive in slices whose ends fall inside waits.
	for limit := e.Now(); e.LiveProcs() > 0; {
		limit = limit.Add(7*Microsecond + 300*Nanosecond)
		if err := e.RunUntil(limit); err != nil {
			t.Fatal(err)
		}
		for _, wt := range w.waiting {
			if wt {
				w.cuts++
				break
			}
		}
		if limit > Time(10*Millisecond) {
			t.Fatalf("scenario did not finish: %d procs left", e.LiveProcs())
		}
	}
	return w
}

// TestSpinMatchesGoroutineLoop pins Spin to the loop it replaces: the
// dispatch trace (time, sequence, proc), every chooser decision and the
// end time are identical, through Advance's
// fast and slow paths, Park/Unpark from a step, RunUntil limits that
// fall mid-spin and an installed Chooser.
func TestSpinMatchesGoroutineLoop(t *testing.T) {
	for _, choose := range []bool{false, true} {
		t.Run(fmt.Sprintf("chooser=%v", choose), func(t *testing.T) {
			loop := runSpinWorld(t, false, choose, 4)
			spin := runSpinWorld(t, true, choose, 4)
			if loop.fast == 0 || loop.slow == 0 || loop.parks == 0 || loop.cuts == 0 {
				t.Fatalf("scenario misses a path: fast=%d slow=%d parks=%d cuts=%d",
					loop.fast, loop.slow, loop.parks, loop.cuts)
			}
			if choose && len(loop.decisions) == 0 {
				t.Fatal("the chooser was never consulted")
			}
			if len(spin.trace) != len(loop.trace) {
				t.Errorf("dispatch trace has %d entries with Spin, %d with the loop", len(spin.trace), len(loop.trace))
			}
			for i := 0; i < len(spin.trace) && i < len(loop.trace); i++ {
				if spin.trace[i] != loop.trace[i] {
					t.Fatalf("dispatch %d: Spin %+v, loop %+v", i, spin.trace[i], loop.trace[i])
				}
			}
			if !reflect.DeepEqual(spin.decisions, loop.decisions) {
				t.Errorf("chooser decisions differ: %d with Spin, %d with the loop", len(spin.decisions), len(loop.decisions))
			}
			if spin.e.Now() != loop.e.Now() {
				t.Errorf("end time %v with Spin, %v with the loop", spin.e.Now(), loop.e.Now())
			}
			if spin.fast != loop.fast || spin.slow != loop.slow || spin.parks != loop.parks || spin.cuts != loop.cuts {
				t.Errorf("paths: Spin fast=%d slow=%d parks=%d cuts=%d, loop fast=%d slow=%d parks=%d cuts=%d",
					spin.fast, spin.slow, spin.parks, spin.cuts, loop.fast, loop.slow, loop.parks, loop.cuts)
			}
		})
	}
}

// TestSpinContractPanics: a step that suspends twice, returns false
// without suspending, or suspends and reports the wait over panics with
// the spinning proc's name — whether the pass runs on the proc's own
// goroutine (the first) or on a dispatching one (later passes).
func TestSpinContractPanics(t *testing.T) {
	cases := []struct {
		name, want string
		bad        func(p *Proc) bool
	}{
		{"suspends twice", "suspended twice", func(p *Proc) bool {
			p.Advance(Microsecond)
			p.Advance(Microsecond)
			return false
		}},
		{"no suspension", "returned without suspending", func(p *Proc) bool { return false }},
		{"suspends and finishes", "suspended and reported the wait over", func(p *Proc) bool {
			p.Advance(Microsecond)
			return true
		}},
	}
	for _, c := range cases {
		for _, badPass := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/pass%d", c.name, badPass), func(t *testing.T) {
				base := runtime.NumGoroutine()
				e := New()
				e.SetTrapPanics(true)
				e.Spawn("bystander", func(p *Proc) {
					for {
						p.Advance(Microsecond)
					}
				})
				e.Spawn("spinner", func(p *Proc) {
					pass := 0
					p.Spin(func() bool {
						if pass++; pass == badPass {
							return c.bad(p)
						}
						p.Advance(Microsecond)
						return false
					})
				})
				err := e.Run()
				if err == nil || !strings.Contains(err.Error(), "spinner") || !strings.Contains(err.Error(), c.want) {
					t.Fatalf("Run() = %v, want a panic of the spinner: %s", err, c.want)
				}
				e.Shutdown()
				leakcheck.Check(t, base)
			})
		}
	}
}

// TestSpinPanicReraisedOnSpinningProc: a step that panics while another
// proc's goroutine dispatches it is re-raised on the spinning proc, so
// the trapped error names the spinner, not the dispatcher.
func TestSpinPanicReraisedOnSpinningProc(t *testing.T) {
	base := runtime.NumGoroutine()
	e := New()
	e.SetTrapPanics(true)
	e.Spawn("dispatcher", func(p *Proc) {
		for {
			p.Advance(Microsecond)
		}
	})
	var ran []string
	e.Spawn("spinner", func(p *Proc) {
		pass := 0
		p.Spin(func() bool {
			ran = append(ran, e.Current().Name())
			if pass++; pass == 3 {
				panic("boom")
			}
			p.Advance(Microsecond)
			return false
		})
		t.Error("spinner returned from a panicking Spin")
	})
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "proc spinner#2 panicked: boom") {
		t.Fatalf("Run() = %v, want the spinner's panic", err)
	}
	if len(ran) != 3 {
		t.Errorf("step ran %d times, want 3", len(ran))
	}
	e.Shutdown()
	leakcheck.Check(t, base)
	if e.LiveProcs() != 0 {
		t.Errorf("LiveProcs = %d after Shutdown", e.LiveProcs())
	}
}

// TestSpinShutdownKillsSpinners: Shutdown kills a proc parked mid-spin
// and one whose next pass is due past the RunUntil limit, and every
// goroutine exits.
func TestSpinShutdownKillsSpinners(t *testing.T) {
	base := runtime.NumGoroutine()
	e := New()
	e.Spawn("parked", func(p *Proc) {
		polls := 0
		p.Spin(func() bool {
			if polls++; polls == 4 {
				p.Park()
				return false
			}
			p.Advance(Microsecond)
			return false
		})
	})
	e.Spawn("ready", func(p *Proc) {
		p.Spin(func() bool {
			p.Advance(3 * Microsecond)
			return false
		})
	})
	if err := e.RunUntil(Time(20 * Microsecond)); err != nil {
		t.Fatal(err)
	}
	if e.LiveProcs() != 2 {
		t.Fatalf("LiveProcs = %d mid-spin, want 2", e.LiveProcs())
	}
	e.Shutdown()
	if e.LiveProcs() != 0 {
		t.Errorf("LiveProcs = %d after Shutdown", e.LiveProcs())
	}
	leakcheck.Check(t, base)
}

// TestSpinZeroAllocs: a spin pass run by the dispatcher allocates
// nothing, nor does a spin that ends and starts again.
func TestSpinZeroAllocs(t *testing.T) {
	e := New()
	e.Spawn("bystander", func(p *Proc) {
		for {
			p.Advance(Microsecond)
		}
	})
	polls := 0
	e.Spawn("spinner", func(p *Proc) {
		step := func() bool {
			if polls++; polls%16 == 0 {
				return true
			}
			p.Advance(Microsecond)
			return false
		}
		for {
			p.Spin(step)
		}
	})
	step := runChunks(e, 100*Microsecond)
	step()
	if got := testing.AllocsPerRun(50, step); got != 0 {
		t.Errorf("spin passes allocate %.1f per chunk, want 0", got)
	}
	if polls == 0 {
		t.Fatal("the spinner never polled")
	}
	e.Stop()
	e.Shutdown()
}
