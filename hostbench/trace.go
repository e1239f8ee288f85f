package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

// call is one public function of a simulator layer that the benchmark
// wraps in a span. The layer is the name's first component.
type call uint8

const (
	callOp call = iota // root span of one benchmark op
	callSimRun
	callKernelGetpid
	callKernelClone
	callKernelJoin
	callKernelSemWait
	callKernelSemPost
	callCoreYield
	callCoreGetpid
	callCoreSpawn
	callCoreWaitAll
	callSyncLock
	callSyncUnlock
	callSyncCondWait
	callSyncCondBroadcast
	callChaosRun
	// callSimRun to callChaosRun report call counts and self-time
	// percentiles; calls from here on report total self time only (a run
	// makes a few dozen bench calls at most).
	callBenchScale
	callBenchPaper // first of the paper experiments, in paperExperiments order
)

var callNames = []string{
	"harness.op", "sim.run",
	"kernel.getpid", "kernel.clone", "kernel.join", "kernel.sem_wait", "kernel.sem_post",
	"core.yield", "core.getpid", "core.spawn", "core.waitall",
	"sync.lock", "sync.unlock", "sync.cond_wait", "sync.cond_broadcast",
	"chaos.run", "bench.scale",
}

func init() {
	for _, x := range paperExperiments {
		callNames = append(callNames, "bench."+x.name)
	}
}

func (c call) String() string { return callNames[c] }

func (c call) layer() string {
	layer, _, _ := strings.Cut(callNames[c], ".")
	return layer
}

// layers are the simulator layers whose busy time the trace reports;
// "harness" is the benchmark itself plus time outside every span.
var layers = []string{"sim", "kernel", "core", "sync", "chaos", "bench", "harness"}

// span is one recorded call. Times are host nanoseconds since the
// tracer's epoch.
type span struct {
	call       call
	parent     int32 // the span that owned the clock when this one began; -1 for none
	op         int32 // index of the op this span belongs to
	start, end int64
	self       int64 // time credited to this span (see tracer.credit)
}

// tracer records spans in memory for one traced pass.
//
// The simulation engine runs exactly one goroutine at a time and hands
// control between them over channels, so the spans of every simulated
// task form one sequential timeline and need no locking. Spans of
// different tasks interleave without nesting (a yield ends on another
// task's timeline), so self time is defined on the timeline: each
// instant is credited to the open span that began last. A span's self
// time is therefore its duration minus the parts covered by spans that
// began inside it, whichever task began them, and the self times of one
// op's spans add up to the op's root span.
type tracer struct {
	epoch     time.Time
	spans     []span
	open      []int32 // open spans in begin order; the last one owns the clock
	last      int64
	uncovered int64 // time while no span was open
	op        int32
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span; a nil tracer records nothing.
func (t *tracer) begin(c call) int32 {
	if t == nil {
		return -1
	}
	now := t.credit()
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{call: c, parent: parent, op: t.op, start: now, end: -1})
	t.open = append(t.open, id)
	return id
}

// beginOp opens the root span of op i.
func (t *tracer) beginOp(i int) int32 {
	if t == nil {
		return -1
	}
	t.op = int32(i)
	return t.begin(callOp)
}

// end closes span id.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.spans[id].end = t.credit()
	for i := len(t.open) - 1; i >= 0; i-- {
		if t.open[i] == id {
			t.open = append(t.open[:i], t.open[i+1:]...)
			break
		}
	}
}

// credit charges the time since the previous span event to the span
// that owns the clock, and returns the current time.
func (t *tracer) credit() int64 {
	now := int64(time.Since(t.epoch))
	if n := len(t.open); n > 0 {
		t.spans[t.open[n-1]].self += now - t.last
	} else {
		t.uncovered += now - t.last
	}
	t.last = now
	return now
}

// finish closes the pass: time since the last span event counts as
// uncovered.
func (t *tracer) finish() { t.credit() }

// selfByCall returns every call's self times in nanoseconds, sorted.
func (t *tracer) selfByCall() [][]int64 {
	out := make([][]int64, len(callNames))
	for _, s := range t.spans {
		out[s.call] = append(out[s.call], s.self)
	}
	for _, v := range out {
		sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	}
	return out
}

// layerSelf returns each layer's total self time in seconds.
func (t *tracer) layerSelf() map[string]float64 {
	out := map[string]float64{"harness": float64(t.uncovered) / 1e9}
	for _, s := range t.spans {
		out[s.call.layer()] += float64(s.self) / 1e9
	}
	return out
}

// nearestRank returns the q-quantile of sorted by the nearest-rank rule.
func nearestRank(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return float64(sorted[max(0, min(i, len(sorted)-1))])
}

// tail is the p99 from 1,000 samples up; below that it is the highest
// percentile with at least ten samples beyond it (the maximum below 11
// samples), so a tail figure always rests on ten observations.
func tail(sorted []int64) float64 {
	n := len(sorted)
	switch {
	case n >= 1000:
		return nearestRank(sorted, 0.99)
	case n > 10:
		return float64(sorted[n-11])
	case n > 0:
		return float64(sorted[n-1])
	}
	return 0
}

// writeSpans writes every span as one tab-separated line.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\top\tcall\tstart_ns\tend_ns\tself_ns")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\t%d\n", i, s.parent, s.op, s.call, s.start, s.end, s.self)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
