// Package timeline records and analyzes scheduling timelines of the
// simulated machine: who occupied each core when. A Recorder is a probe
// program at the kernel's sched:stop point; it renders per-core
// utilization reports, per-task residency summaries and an ASCII Gantt
// chart — making the Fig. 6 partitioning (program cores vs system-call
// cores) directly visible.
package timeline

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/probe"
	"repro/internal/sim"
)

// Span is one contiguous occupancy of a core by a task.
type Span struct {
	Core       int
	Task       string
	PID        int
	Start, End sim.Time
}

// Dur reports the span length.
func (s Span) Dur() sim.Duration { return s.End.Sub(s.Start) }

// Recorder accumulates spans; attach it to a kernel's probe registry.
type Recorder struct {
	spans []Span
}

// New creates an empty recorder.
func New() *Recorder { return &Recorder{} }

// Attach attaches the recorder to reg at sched:stop, which closes one span
// each time a task leaves a core, and returns the program handle.
func (r *Recorder) Attach(reg *probe.Registry) *probe.Program {
	return reg.Attach("timeline", r.fire, probe.PSchedStop)
}

func (r *Recorder) fire(c *probe.Ctx) probe.Verdict {
	if c.Dur > 0 {
		r.RecordSpan(int(c.Val), c.Task.Name(), c.Task.PID(), c.Now.Add(-c.Dur), c.Now)
	}
	return probe.Verdict{}
}

// RecordSpan records that task occupied core from start to end.
func (r *Recorder) RecordSpan(core int, task string, pid int, start, end sim.Time) {
	r.spans = append(r.spans, Span{Core: core, Task: task, PID: pid, Start: start, End: end})
}

// Spans returns all recorded spans in record order.
func (r *Recorder) Spans() []Span {
	out := make([]Span, len(r.spans))
	copy(out, r.spans)
	return out
}

// Window reports the earliest start and latest end across all spans.
func (r *Recorder) Window() (start, end sim.Time) {
	if len(r.spans) == 0 {
		return 0, 0
	}
	start, end = r.spans[0].Start, r.spans[0].End
	for _, s := range r.spans {
		if s.Start < start {
			start = s.Start
		}
		if s.End > end {
			end = s.End
		}
	}
	return start, end
}

// CoreUtilization reports each core's busy fraction of the window.
func (r *Recorder) CoreUtilization() map[int]float64 {
	start, end := r.Window()
	total := float64(end.Sub(start))
	out := map[int]float64{}
	if total <= 0 {
		return out
	}
	for _, s := range r.spans {
		out[s.Core] += float64(s.Dur()) / total
	}
	return out
}

// TaskResidency reports each task's total on-CPU time and the set of
// cores it ran on.
func (r *Recorder) TaskResidency() map[string]struct {
	Busy  sim.Duration
	Cores map[int]bool
} {
	out := map[string]struct {
		Busy  sim.Duration
		Cores map[int]bool
	}{}
	for _, s := range r.spans {
		e := out[s.Task]
		if e.Cores == nil {
			e.Cores = map[int]bool{}
		}
		e.Busy += s.Dur()
		e.Cores[s.Core] = true
		out[s.Task] = e
	}
	return out
}

// Report writes a utilization and residency summary.
func (r *Recorder) Report(w io.Writer) {
	start, end := r.Window()
	fmt.Fprintf(w, "timeline: %d spans over [%v, %v]\n", len(r.spans), start, end)
	util := r.CoreUtilization()
	cores := make([]int, 0, len(util))
	for c := range util {
		cores = append(cores, c)
	}
	sort.Ints(cores)
	for _, c := range cores {
		fmt.Fprintf(w, "  core %-3d %6.1f%% busy\n", c, util[c]*100)
	}
	res := r.TaskResidency()
	names := make([]string, 0, len(res))
	for n := range res {
		names = append(names, n)
	}
	// Busiest first; equal busy times in name order, so the report does
	// not depend on map iteration.
	sort.Slice(names, func(i, j int) bool {
		bi, bj := res[names[i]].Busy, res[names[j]].Busy
		if bi != bj {
			return bi > bj
		}
		return names[i] < names[j]
	})
	for _, n := range names {
		e := res[n]
		cs := make([]int, 0, len(e.Cores))
		for c := range e.Cores {
			cs = append(cs, c)
		}
		sort.Ints(cs)
		fmt.Fprintf(w, "  task %-18s %12v on cores %v\n", n, e.Busy, cs)
	}
}

// Gantt renders an ASCII chart: one row per core, time binned into width
// columns; each cell shows the first letter of the task that occupied
// the bin longest ('.' = idle).
func (r *Recorder) Gantt(w io.Writer, width int) {
	start, end := r.Window()
	total := end.Sub(start)
	if total <= 0 || width <= 0 {
		fmt.Fprintln(w, "(empty timeline)")
		return
	}
	perCore := map[int][]Span{}
	maxCore := 0
	for _, s := range r.spans {
		perCore[s.Core] = append(perCore[s.Core], s)
		if s.Core > maxCore {
			maxCore = s.Core
		}
	}
	binDur := float64(total) / float64(width)
	for core := 0; core <= maxCore; core++ {
		spans := perCore[core]
		if spans == nil {
			continue
		}
		row := make([]byte, width)
		for i := range row {
			row[i] = '.'
		}
		// For each bin, pick the task with the largest overlap.
		for bin := 0; bin < width; bin++ {
			binStart := start.Add(sim.Duration(float64(bin) * binDur))
			binEnd := start.Add(sim.Duration(float64(bin+1) * binDur))
			var best sim.Duration
			var label byte = '.'
			for _, s := range spans {
				lo, hi := s.Start, s.End
				if lo < binStart {
					lo = binStart
				}
				if hi > binEnd {
					hi = binEnd
				}
				if hi > lo && hi.Sub(lo) > best {
					best = hi.Sub(lo)
					label = s.Task[0]
				}
			}
			row[bin] = label
		}
		fmt.Fprintf(w, "core %-3d │%s│\n", core, string(row))
	}
	fmt.Fprintf(w, "          %v%s%v\n", start, strings.Repeat(" ", max(0, width-18)), end)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
