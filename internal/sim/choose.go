package sim

import "sort"

// Candidate describes one event enabled at the current decision point,
// presented to a Chooser. Candidates are ordered by schedule sequence, so
// index 0 is always what the engine's fixed FIFO tie-break would run —
// a chooser that constantly returns 0 reproduces the default schedule.
type Candidate struct {
	// Seq is the event's global schedule sequence number (FIFO order).
	Seq  uint64
	proc *Proc // the proc the event resumes, nil for an engine callback
}

// Proc returns the name of the proc the event resumes, or "" for an
// engine callback (timer, wakeup). The name is built on each call, so a
// chooser that never asks formats none.
func (c Candidate) Proc() string {
	if c.proc == nil {
		return ""
	}
	return c.proc.Name()
}

// Chooser decides which of several events enabled at the same virtual
// instant runs next. The engine consults it only when two or more events
// share the earliest timestamp; with no chooser installed (the default)
// the fixed (time, sequence) tie-break applies and the hot path pays one
// nil check.
//
// The schedule-space explorer (internal/explore) implements Chooser to
// search interleavings: because the engine is otherwise deterministic, a
// run is a pure function of the sequence of choices, so any run can be
// replayed — and shrunk — from its decision trace.
//
// Choose receives the candidates in sequence (FIFO) order and must return
// an index in [0, len(cands)); out-of-range returns fall back to 0. The
// cands slice is reused between calls and must not be retained.
type Chooser interface {
	Choose(now Time, cands []Candidate) int
}

// SetChooser installs a schedule chooser (nil restores the fixed FIFO
// tie-break). Install before the simulation runs: switching mid-run is
// legal but makes the decision trace start mid-schedule.
func (e *Engine) SetChooser(c Chooser) { e.chooser = c }

// popChoose is popNext under an installed chooser: gather every event
// enabled at the earliest pending instant and let the chooser pick the
// one to run; the rest go back into the heap with their sequence numbers
// (and therefore their future default ordering) unchanged.
func (e *Engine) popChoose() *event {
	min := e.peek()
	if min == nil {
		return nil
	}
	at := min.at
	cands := e.candEvents[:0]
	if d := e.deferred; d != nil && d.at == at {
		e.deferred = nil
		cands = append(cands, d)
	}
	for len(e.heap) > 0 && e.heap[0].at == at {
		cands = append(cands, e.heapPop())
	}
	e.candEvents = cands[:0] // retain capacity for the next decision
	if len(cands) == 1 {
		return cands[0]
	}
	// heapPop yields equal-time events in seq order already, but the
	// deferred slot (appended first) holds the newest schedule; sort so
	// the presentation is canonical FIFO.
	sort.Slice(cands, func(i, j int) bool { return cands[i].seq < cands[j].seq })
	labels := e.candLabels[:0]
	for _, ev := range cands {
		labels = append(labels, Candidate{Seq: ev.seq, proc: ev.proc})
	}
	e.candLabels = labels[:0]
	idx := e.chooser.Choose(at, labels)
	clear(labels) // hold no proc past the decision
	if idx < 0 || idx >= len(cands) {
		idx = 0
	}
	chosen := cands[idx]
	for i, ev := range cands {
		if i != idx {
			e.heapPush(ev)
		}
		cands[i] = nil
	}
	return chosen
}
