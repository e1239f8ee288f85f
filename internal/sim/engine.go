package sim

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sort"
	"strings"
)

// ErrDeadlock is returned by Run when no events remain but parked procs
// still exist: the simulation can make no further progress.
var ErrDeadlock = errors.New("sim: deadlock, parked procs remain with empty event queue")

// ErrKilled is the panic value delivered to procs that are forcibly
// terminated by Engine.Shutdown while parked.
var ErrKilled = errors.New("sim: proc killed by engine shutdown")

// maxTime is the Run limit: every event timestamp is below it.
const maxTime = Time(math.MaxInt64)

// event is a scheduled occurrence: either the resumption of a parked proc
// or the invocation of a callback in engine context.
//
// Resume events are intrusive: each Proc embeds its own event (a live
// proc has at most one pending resume, so the storage can be reused for
// every Advance/Unpark without allocating). Callback events are recycled
// through the engine's freelist. In steady state the scheduler therefore
// performs zero heap allocations.
type event struct {
	at   Time
	seq  uint64 // tie-breaker: FIFO among equal timestamps
	proc *Proc  // proc to resume, or nil for a callback
	// fn is the callback to run in engine context; a proc's own event
	// carries its spin step here instead (see Proc.Spin).
	fn func()
}

// eventLess orders events by (time, sequence): earlier first, FIFO among
// equal timestamps.
func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Engine is a deterministic discrete-event simulator. It is not safe for
// concurrent use from multiple OS threads: all interaction must happen
// either from the goroutine that calls Run or from within procs (which the
// engine serializes).
type Engine struct {
	now Time
	seq uint64

	// heap is a hand-rolled 4-ary min-heap ordered by eventLess. A
	// 4-ary layout halves the tree depth of a binary heap and keeps
	// sibling comparisons within one cache line of the slice.
	heap []*event

	// deferred fuses the ubiquitous push-then-pop pattern (a proc
	// schedules its next event, then the engine immediately takes the
	// minimum): the most recent schedule is parked here and only
	// migrates into the heap if a second schedule arrives first. When
	// the deferred event is the minimum it is returned without any
	// sift; when the heap head pops at the same timestamp the deferred
	// event stays out of the heap entirely, so same-time cascades never
	// pay sift-up or sift-down for it.
	deferred *event

	// free recycles callback events (proc resumes are intrusive and
	// need no pool).
	free []*event

	procs   map[uint64]*Proc // live procs by id
	nextID  uint64
	current *Proc // proc currently holding the baton, nil when engine runs

	// baton is signaled by a proc when it parks or exits, returning
	// control to the engine loop.
	baton chan struct{}

	stopped bool

	// direct is true while Run/RunUntil's event loop is active: yielding
	// procs then dispatch the next event themselves and hand the baton
	// straight to the next proc (one goroutine switch instead of two
	// through the engine goroutine). Outside the loop (Shutdown kills)
	// procs fall back to waking the engine via baton.
	direct bool

	// trapPanics converts proc panics into an error returned by
	// Run/RunUntil instead of crashing the process — the explorer uses
	// this so a protocol-violation panic on an adversarial schedule is a
	// failing (and shrinkable) run, not an abort.
	trapPanics bool

	// idle lists the runners of exited procs, nIdle long (at most
	// maxIdle), for Start to reuse. It is empty outside the event
	// loop, which reaps it before Run/RunUntil return.
	nIdle int32
	idle  *runner

	// limit is the timestamp bound of the active Run/RunUntil loop; the
	// proc-local Advance fast path must not carry the clock past it.
	limit  Time
	tracer *Tracer

	// chooser, when non-nil, overrides the FIFO tie-break among events
	// enabled at the same instant (see choose.go). The scratch slices are
	// reused across decision points, and a candidate's proc name is built
	// only if the chooser asks for it, so a decision allocates nothing in
	// steady state.
	chooser    Chooser
	candEvents []*event
	candLabels []Candidate

	panicErr error // the trapped proc panic, see SetTrapPanics

	// stepPanic holds a panic raised by a spin step on a dispatching
	// goroutine while it travels to the spinning proc's goroutine, or
	// one a user context hands to the goroutine that resumed it.
	stepPanic any

	// coros lists the goroutines of user contexts (Track), for
	// Shutdown to kill those still parked. Ended ones stay listed until
	// then: a pool keeps its BLTs, and so their contexts, as long.
	coros []*Coro
}

// New creates an empty engine at virtual time zero.
func New() *Engine {
	return &Engine{
		procs: make(map[uint64]*Proc),
		baton: make(chan struct{}),
		limit: maxTime,
	}
}

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// SetTracer installs a tracer that records engine events; nil disables
// tracing.
func (e *Engine) SetTracer(t *Tracer) { e.tracer = t }

// Tracer returns the installed tracer, or nil.
func (e *Engine) Tracer() *Tracer { return e.tracer }

func (e *Engine) trace(kind, format string, args ...interface{}) {
	if e.tracer != nil {
		e.tracer.add(e.now, kind, format, args)
	}
}

// schedule enqueues an event at its absolute time ev.at: it lands in
// the deferred slot, migrating a previously deferred event into the
// heap. The sequence number is assigned here, so tie-order at equal
// timestamps is the order of the schedule calls whichever structure
// holds the event.
func (e *Engine) schedule(ev *event) {
	ev.seq = e.seq
	e.seq++
	if d := e.deferred; d != nil {
		e.heapPush(d)
	}
	e.deferred = ev
}

// peek returns the earliest pending event without removing it, or nil.
func (e *Engine) peek() *event {
	d := e.deferred
	if d != nil && (len(e.heap) == 0 || eventLess(d, e.heap[0])) {
		return d
	}
	if len(e.heap) == 0 {
		return nil
	}
	return e.heap[0]
}

// popNext removes and returns the earliest pending event, or nil.
func (e *Engine) popNext() *event {
	d := e.deferred
	if d != nil && (len(e.heap) == 0 || eventLess(d, e.heap[0])) {
		e.deferred = nil
		return d
	}
	if len(e.heap) == 0 {
		return nil
	}
	return e.heapPop()
}

// heapPush inserts ev into the 4-ary heap (sift-up by hole movement: the
// event is written once, parents shift down).
func (e *Engine) heapPush(ev *event) {
	q := append(e.heap, ev)
	e.heap = q
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !eventLess(ev, q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = ev
}

// heapPop removes and returns the minimum of the 4-ary heap.
func (e *Engine) heapPop() *event {
	q := e.heap
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = nil
	q = q[:n]
	e.heap = q
	if n > 0 {
		i := 0
		for {
			c := i<<2 + 1
			if c >= n {
				break
			}
			m := c
			end := c + 4
			if end > n {
				end = n
			}
			for j := c + 1; j < end; j++ {
				if eventLess(q[j], q[m]) {
					m = j
				}
			}
			if !eventLess(q[m], last) {
				break
			}
			q[i] = q[m]
			i = m
		}
		q[i] = last
	}
	return top
}

// acquireEvent returns a callback event from the freelist (or a new one).
func (e *Engine) acquireEvent(at Time, fn func()) *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		ev.at, ev.fn = at, fn
		return ev
	}
	return &event{at: at, fn: fn}
}

// maxFree bounds the callback freelist: steady-state workloads have few
// callbacks in flight, and an unbounded list would pin a burst of events
// (and their GC scan cost) forever.
const maxFree = 1024

// releaseEvent returns a popped callback event to the freelist.
func (e *Engine) releaseEvent(ev *event) {
	ev.fn = nil
	if len(e.free) < maxFree {
		e.free = append(e.free, ev)
	}
}

// After runs fn in engine context after delay d. fn must not park; it is a
// plain callback, useful for timers and asynchronous wakeups. A d that
// carries the clock past its range panics with fn's name.
func (e *Engine) After(d Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	at := e.now.Add(d)
	if at < e.now {
		panic(badDue("callback "+runtime.FuncForPC(reflect.ValueOf(fn).Pointer()).Name(), e.now, d))
	}
	e.schedule(e.acquireEvent(at, fn))
}

// badDue is the panic message of a due time, now+d, that is before now
// or overflows the clock: who names the proc or callback that asked
// for it.
func badDue(who string, now Time, d Duration) string {
	if d < 0 {
		return fmt.Sprintf("sim: %s: negative delay %v", who, d)
	}
	return fmt.Sprintf("sim: %s: due time %v + %v is past the end of virtual time (%v)", who, now, d, maxTime)
}

// spawned is the storage and body of a proc that Spawn starts.
type spawned struct {
	Proc
	name string
	fn   func(*Proc)
}

func (s *spawned) ProcName() string { return s.name }

func (s *spawned) RunProc(p *Proc) { s.fn(p) }

// Spawn creates a new proc executing fn and schedules its first resumption
// at the current time. fn runs on a goroutine of its own but only while
// holding the engine baton.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	s := &spawned{name: name, fn: fn}
	e.Start(&s.Proc, s, 0)
	return &s.Proc
}

// maxIdle bounds the idle runner list, whose every entry keeps a
// goroutine and its stack until the loop ends. Only runners that a
// later spawn takes pay off: spawn-join reuses one, and the deepest
// reuse measured (DESIGN §3) is the futex-churn row's batch of 64
// waiters. A fan-in's burst of exits fills any bound, and no spawn
// follows it before the loop ends.
const maxIdle = 64

// Start starts a proc in storage the caller owns: p runs b, first
// resumed after d, under a new id. The engine allocates nothing for it:
// b runs on an idle runner when there is one (see runner), and on a new
// goroutine otherwise.
//
// p must be new (zero) or a proc whose body has returned. A proc that a
// kill or a trapped panic ended must not be started again: its resume
// event may still be queued. A start due past the clock's range panics.
func (e *Engine) Start(p *Proc, b Body, d Duration) {
	if p.id != 0 && p.state != procDead {
		panic(fmt.Sprintf("sim: Start of live proc %s in state %v", p, p.state))
	}
	at := e.now.Add(d)
	if at < e.now {
		panic(badDue("Start of "+b.ProcName(), e.now, d))
	}
	e.nextID++
	*p = Proc{id: e.nextID, body: b, engine: e}
	p.ev.proc = p
	e.procs[p.id] = p
	if e.tracer != nil {
		e.trace("spawn", "proc %s", p.String())
	}
	r := e.idle
	if r != nil {
		e.idle, r.next = r.next, nil
		e.nIdle--
		r.p = p
	} else {
		r = &runner{Coro: Coro{resume: make(chan resumeMsg)}, p: p}
		go r.loop()
	}
	p.r = &r.Coro
	p.ev.at = at
	e.schedule(&p.ev)
}

// reapIdle ends the goroutine of every idle runner.
func (e *Engine) reapIdle() {
	for r := e.idle; r != nil; r = e.idle {
		e.idle, r.next = r.next, nil
		r.resume <- resumeMsg{}
	}
	e.nIdle = 0
}

// dispatchResult reports how a dispatchNext call ended.
type dispatchResult int

const (
	// chainEnded: no more events are runnable (queue drained, limit
	// reached, or Stop requested); control belongs to the engine loop.
	chainEnded dispatchResult = iota
	// handedOff: a proc other than the caller was resumed; the caller
	// must wait for its own resume (or for the baton, if it is the
	// engine loop).
	handedOff
	// resumedSelf: the next event was the calling proc's own resume; it
	// keeps running without any goroutine switch.
	resumedSelf
)

// dispatchNext executes pending callbacks and resumes the next runnable
// proc. It is called both by the engine loop (self == nil) and — in
// direct mode — by the goroutine of a yielding or exiting proc, which
// hands the baton straight to the next proc instead of bouncing through
// the engine goroutine (halving the scheduler switches per simulated
// context switch). A resume of a proc that self runs, the caller's own
// or the first of a proc just handed an exiting runner, returns
// resumedSelf.
func (e *Engine) dispatchNext(self *Coro) dispatchResult {
	for !e.stopped {
		next := e.peek()
		if next == nil || next.at > e.limit {
			break
		}
		var ev *event
		if e.chooser != nil {
			ev = e.popChoose()
		} else {
			ev = e.popNext()
		}
		if ev.at < e.now {
			panic(fmt.Sprintf("sim: event scheduled in the past: %v < %v", ev.at, e.now))
		}
		e.now = ev.at
		p := ev.proc
		if p == nil {
			fn := ev.fn
			e.releaseEvent(ev)
			e.current = nil
			fn()
			continue
		}
		if p.state == procDead {
			continue // stale resume for an exited proc
		}
		if p.state != procReady {
			panic(fmt.Sprintf("sim: resuming proc %s in state %v", p, p.state))
		}
		e.current = p
		p.state = procRunning
		var msg resumeMsg
		if p.ev.fn != nil {
			// A spinning proc: its next pass runs here, and its
			// goroutine wakes only once the spin is over.
			done, panicked := p.resumeSpin()
			if !done {
				continue
			}
			if panicked != nil {
				if p.r == self {
					panic(panicked)
				}
				e.stepPanic, msg.reraise = panicked, true
			}
		}
		if p.r == self {
			return resumedSelf
		}
		p.r.resume <- msg
		return handedOff
	}
	e.current = nil
	return chainEnded
}

// release gives up the baton for good: in direct mode the calling
// goroutine (self, or nil when it runs no proc from now on) dispatches
// its successor itself, otherwise it wakes the engine loop.
func (e *Engine) release(self *Coro) dispatchResult {
	if !e.direct {
		e.baton <- struct{}{}
		return chainEnded
	}
	res := e.dispatchNext(self)
	if res == chainEnded {
		e.baton <- struct{}{}
	}
	return res
}

// runProc hands the baton to p and waits for it to park or exit. Used
// only outside the event loop (Shutdown kill delivery).
func (e *Engine) runProc(p *Proc, msg resumeMsg) {
	prev := e.current
	e.current = p
	p.state = procRunning
	p.r.resume <- msg
	<-e.baton
	e.current = prev
}

// loop drives the event loop in direct-handoff mode: it starts dispatch
// chains and sleeps on the baton while procs hand control among
// themselves; a proc that finds no runnable successor wakes it back up.
// On the way out it reaps the idle runners, so no goroutine outlives
// Run/RunUntil but those of live procs.
func (e *Engine) loop() {
	e.direct = true
	defer func() {
		e.direct = false
		e.reapIdle()
	}()
	for e.dispatchNext(nil) == handedOff {
		<-e.baton
	}
}

// Run executes events until the queue drains, Stop is called, or a
// deadlock is detected (parked procs with no pending events).
func (e *Engine) Run() error {
	e.stopped = false
	e.limit = maxTime
	e.loop()
	if e.panicErr != nil {
		return e.panicErr
	}
	if e.stopped {
		return nil
	}
	var parked []string
	for _, p := range e.procs {
		if p.state == procParked {
			parked = append(parked, p.String())
		}
	}
	if len(parked) > 0 {
		sort.Strings(parked)
		return fmt.Errorf("%w: %s", ErrDeadlock, strings.Join(parked, ", "))
	}
	return nil
}

// RunUntil executes events with timestamps <= t, then returns. The clock
// is left at min(t, time of last executed event); it does not jump to t if
// the queue drains earlier.
func (e *Engine) RunUntil(t Time) error {
	e.stopped = false
	e.limit = t
	defer func() { e.limit = maxTime }()
	e.loop()
	return e.panicErr
}

// SetTrapPanics selects what happens when a proc's function panics: with
// trapping on, the panicking proc dies, the simulation stops, and
// Run/RunUntil return the panic as an error; with trapping off (the
// default) the panic propagates and crashes the process with the proc's
// stack. The explorer traps panics so that invariant panics on
// adversarial schedules become failing runs it can shrink and replay.
func (e *Engine) SetTrapPanics(on bool) { e.trapPanics = on }

// PanicErr returns the trapped proc panic that stopped the simulation,
// or nil.
func (e *Engine) PanicErr() error { return e.panicErr }

// Stop makes Run return after the current event completes. Callable from
// procs and callbacks.
func (e *Engine) Stop() { e.stopped = true }

// Shutdown forcibly terminates all parked or ready procs by delivering an
// ErrKilled panic into them, then kills the goroutine of every user
// context still parked (Track). Use in tests to reap goroutines from
// aborted simulations. Must not be called from inside a proc. Procs are
// killed in ascending id order so shutdown traces are deterministic (and
// the live set is snapshotted first: killing a proc mutates e.procs).
func (e *Engine) Shutdown() {
	ids := make([]uint64, 0, len(e.procs))
	for id := range e.procs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		p, ok := e.procs[id]
		if !ok {
			continue
		}
		if p.state == procParked || p.state == procReady {
			e.runProc(p, resumeMsg{kill: true})
		}
	}
	for _, c := range e.coros {
		if c.resume != nil {
			c.Kill()
		}
	}
	e.coros = nil
}

// LiveProcs reports the number of procs that have not exited.
func (e *Engine) LiveProcs() int { return len(e.procs) }

// PendingEvents reports the number of scheduled events.
func (e *Engine) PendingEvents() int {
	n := len(e.heap)
	if e.deferred != nil {
		n++
	}
	return n
}

// Current returns the proc holding the baton, or nil when the engine
// itself (a callback) is running.
func (e *Engine) Current() *Proc { return e.current }
