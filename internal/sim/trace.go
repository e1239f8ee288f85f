package sim

import (
	"fmt"
	"io"
)

// Phase classifies a trace record, mirroring the Chrome trace-event
// phases the exporter maps them to.
type Phase byte

// Phases.
const (
	// PhLog is an untyped log line (the legacy Add path).
	PhLog Phase = iota
	// PhInstant is a typed point event carrying task/core metadata.
	PhInstant
	// PhBegin opens a duration span; its id pairs it with a PhEnd.
	PhBegin
	// PhEnd closes the span opened by the PhBegin with the same id.
	PhEnd
)

// Meta is the typed context attached to an event: which task, on which
// core, emitted it. Core -1 means "not bound to a core" (engine events,
// or a task currently off-CPU).
type Meta struct {
	Task string
	PID  int
	Core int
}

// NoMeta is the Meta of events with no task context.
var NoMeta = Meta{Core: -1}

// TraceEvent is one recorded event, rendered to its final message.
type TraceEvent struct {
	At   Time
	Kind string
	Msg  string

	// Typed fields (zero values on legacy log events; Core is -1 when
	// unknown).
	Task string
	PID  int
	Core int
	Span uint64 // non-zero links a PhBegin with its PhEnd
	Ph   Phase
}

// String implements fmt.Stringer.
func (ev TraceEvent) String() string {
	return fmt.Sprintf("[%12.3fns] %-8s %s", ev.At.Nanoseconds(), ev.Kind, ev.Msg)
}

// record is one unrendered trace entry. Formatting is deferred until the
// event is actually read: a bounded ring evicts most entries unread, so
// emitters never pay fmt.Sprintf for them. Arguments are captured by
// value at Add time, so a pointer argument renders its state at read
// time. That is why the engine passes a proc's name, not the *Proc: a
// proc's storage is reused once it exits (a kernel recycles joined
// threads, Engine.Start), and the pointer would print its successor.
type record struct {
	at     Time
	kind   string
	format string
	args   []interface{} // nil or empty: format is already the message

	task string
	pid  int
	core int
	span uint64
	ph   Phase
}

// render formats the record into its user-visible event.
func (r record) render() TraceEvent {
	msg := r.format
	if len(r.args) > 0 {
		msg = fmt.Sprintf(r.format, r.args...)
	}
	switch r.ph {
	case PhBegin:
		msg = "begin " + msg
	case PhEnd:
		if msg == "" {
			msg = "end"
		} else {
			msg = "end " + msg
		}
	}
	return TraceEvent{
		At: r.at, Kind: r.kind, Msg: msg,
		Task: r.task, PID: r.pid, Core: r.core, Span: r.span, Ph: r.ph,
	}
}

// Tracer records engine and subsystem events into a bounded ring buffer.
// Subsystems (kernel, blt, ulp) emit their own kinds through Add/Emit,
// and bracket durations with BeginSpan/EndSpan.
type Tracer struct {
	cap   int
	recs  []record
	start int // ring start index when full
	full  bool
	total uint64

	nextSpan uint64

	// rendered caches the chronological render of recs; add invalidates
	// it, so repeated Events/Dump/DumpChrome calls format each record
	// once instead of once per call.
	rendered []TraceEvent
	dirty    bool
}

// NewTracer creates a tracer keeping at most capacity events (most recent
// win). capacity <= 0 means unbounded.
func NewTracer(capacity int) *Tracer {
	return &Tracer{cap: capacity}
}

func (t *Tracer) add(at Time, kind, format string, args []interface{}) {
	t.put(record{at: at, kind: kind, format: format, args: args, core: -1})
}

func (t *Tracer) put(r record) {
	t.total++
	t.dirty = true
	if t.cap <= 0 {
		t.recs = append(t.recs, r)
		return
	}
	if len(t.recs) < t.cap {
		t.recs = append(t.recs, r)
		return
	}
	t.recs[t.start] = r
	t.start = (t.start + 1) % t.cap
	t.full = true
}

// Add records an untyped log event with the given timestamp, kind tag
// and message. The message is formatted lazily on Events or Dump.
func (t *Tracer) Add(at Time, kind, format string, args ...interface{}) {
	t.add(at, kind, format, args)
}

// Emit records a typed instant event carrying task/core metadata — the
// Chrome exporter renders these as instant markers on the core's track.
func (t *Tracer) Emit(at Time, kind string, m Meta, format string, args ...interface{}) {
	t.put(record{
		at: at, kind: kind, format: format, args: args,
		task: m.Task, pid: m.PID, core: m.Core, ph: PhInstant,
	})
}

// BeginSpan opens a duration span named name and returns its id; pass
// the id to EndSpan when the bracketed activity completes. The span is
// attributed to the core in m (couple/decouple handshakes may end on a
// different core than they began; the exporter draws the span on the
// beginning core).
func (t *Tracer) BeginSpan(at Time, kind string, m Meta, name string) uint64 {
	t.nextSpan++
	id := t.nextSpan
	t.put(record{
		at: at, kind: kind, format: name,
		task: m.Task, pid: m.PID, core: m.Core, span: id, ph: PhBegin,
	})
	return id
}

// EndSpan closes the span opened by the BeginSpan that returned id.
func (t *Tracer) EndSpan(at Time, span uint64, m Meta) {
	t.put(record{
		at: at, task: m.Task, pid: m.PID, core: m.Core, span: span, ph: PhEnd,
	})
}

// Total reports how many events were ever recorded (including evicted
// ones).
func (t *Tracer) Total() uint64 { return t.total }

// Len reports how many events are currently retained, without forcing a
// render.
func (t *Tracer) Len() int { return len(t.recs) }

// Dropped reports how many events the bounded ring evicted.
func (t *Tracer) Dropped() uint64 { return t.total - uint64(len(t.recs)) }

// events renders (or reuses) the chronological event cache.
func (t *Tracer) events() []TraceEvent {
	if !t.dirty && t.rendered != nil {
		return t.rendered
	}
	out := t.rendered[:0]
	if cap(out) < len(t.recs) {
		out = make([]TraceEvent, 0, len(t.recs))
	}
	if t.full {
		for _, r := range t.recs[t.start:] {
			out = append(out, r.render())
		}
		for _, r := range t.recs[:t.start] {
			out = append(out, r.render())
		}
	} else {
		for _, r := range t.recs {
			out = append(out, r.render())
		}
	}
	t.rendered = out
	t.dirty = false
	return out
}

// Events returns the retained events in chronological order. Rendering
// is cached: consecutive Events/Dump calls without new records reuse the
// same formatted events.
func (t *Tracer) Events() []TraceEvent {
	cached := t.events()
	out := make([]TraceEvent, len(cached))
	copy(out, cached)
	return out
}

// Dump writes the retained events to w, one per line.
func (t *Tracer) Dump(w io.Writer) error {
	for _, ev := range t.events() {
		if _, err := fmt.Fprintln(w, ev); err != nil {
			return err
		}
	}
	return nil
}
