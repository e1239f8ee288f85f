package sim

import (
	"fmt"
	"unsafe"
)

type procState uint8

const (
	procReady procState = iota // has a pending resume event
	procRunning
	procParked // waiting for an explicit Unpark
	procDead
)

func (s procState) String() string {
	switch s {
	case procReady:
		return "ready"
	case procRunning:
		return "running"
	case procParked:
		return "parked"
	case procDead:
		return "dead"
	}
	return "unknown"
}

type resumeMsg struct {
	kill bool
	// reraise: the proc's spin step panicked on the goroutine that
	// dispatched it, or a user context it resumed panicked (Raise); the
	// woken goroutine re-raises the panic, which waits in
	// Engine.stepPanic (the message stays pointer-free).
	reraise bool
}

// Proc is a simulation coroutine. A proc's function runs on a goroutine
// of its own (a runner, which a later proc may reuse once this one has
// returned) but only ever while it holds the engine baton, so procs never
// truly race: exactly one proc (or the engine loop) executes at a time.
//
// Procs model active entities with their own control flow — in this
// repository, simulated kernel tasks (kernel contexts). Passive entities
// (queues, files, page tables) are plain data mutated by whichever proc is
// running.
type Proc struct {
	id     uint64
	body   Body
	engine *Engine
	state  procState
	// stepping is set while a spin step runs (see Spin): Advance and
	// Park then record the suspension instead of blocking, and
	// suspended notes that the step has made it.
	stepping, suspended bool
	// r is the goroutine that executes the proc: its runner, or a user
	// context it carries (see Coro).
	r *Coro

	// ev is the proc's intrusive resume event. A live proc has at most
	// one pending resume (ready XOR running XOR parked), so Spawn,
	// Advance and Unpark all reuse this storage — the scheduler hot
	// path allocates nothing. A resume event never runs a callback, so
	// while the proc spins its fn slot holds the spin step instead.
	ev event

	// Intrusive WaitQ links: wq is the queue the proc is currently
	// parked on (nil when not queued), wqPrev/wqNext its FIFO
	// neighbours. See WaitQ.
	wq             *WaitQ
	wqPrev, wqNext *Proc
}

// Body is the code a proc runs and the name it runs under (see
// Engine.Start).
type Body interface {
	// ProcName gives the proc's diagnostic name. The engine asks only
	// when something prints the proc (a trace line, a panic, a
	// deadlock report, or a chooser that calls Candidate.Proc), so a
	// start formats no string.
	ProcName() string
	// RunProc runs the proc's code; the proc exits when it returns.
	RunProc(p *Proc)
}

// Name returns the proc's diagnostic name.
func (p *Proc) Name() string { return p.body.ProcName() }

// ID returns the proc's unique id.
func (p *Proc) ID() uint64 { return p.id }

// Engine returns the owning engine.
func (p *Proc) Engine() *Engine { return p.engine }

// String implements fmt.Stringer.
func (p *Proc) String() string { return fmt.Sprintf("%s#%d", p.Name(), p.id) }

// runner is a goroutine that runs proc bodies, one after another, and the
// Coro that resumes it. When its proc returns, the runner waits on the
// engine's idle list for the next body (see Start), so a start begins
// a goroutine only when that list is empty. A killed or panicked proc's
// runner is dropped: its goroutine ends with the proc.
type runner struct {
	Coro
	p    *Proc   // the proc it runs; nil while idle
	next *runner // idle-list link
}

// loop runs the bodies handed to r. The loop and the recover share this
// one frame, so a body runs exactly as deep as on a goroutine of its
// own: a parked fan-in waiter sits a few hundred bytes under the 4 KiB
// stack edge, and one more frame below the body pushes every such
// waiter's stack to 8 KiB (DESIGN §3).
func (r *runner) loop() {
	var p *Proc
	defer func() {
		if rec := recover(); rec != nil {
			if r.p != p {
				// The panic came from the dispatch chain of p's exit,
				// after r went idle or on to the next body: r keeps
				// serving on a new goroutine.
				go r.loop()
			}
			p.fail(rec)
		}
	}()
	// Every body waits for its proc's first resume before it runs,
	// unless the exit of the body before dispatched it here.
	msg := <-r.resume
	for p = r.p; p != nil; p = r.p {
		if msg.kill {
			p.die()
			return
		}
		p.body.RunProc(p)
		kept, inPlace := p.retire(r)
		if !kept {
			return
		}
		if !inPlace {
			p = nil // an idle runner must not keep its dead proc alive
			msg = <-r.resume
		}
	}
	// A nil proc is the reap of an idle runner (Engine.reapIdle).
}

// fail handles a panic out of p's body: ErrKilled kills p; anything else
// is trapped (SetTrapPanics) or re-raised with the proc's name.
func (p *Proc) fail(r any) {
	if r == ErrKilled {
		p.die()
		return
	}
	e := p.engine
	if e.trapPanics {
		// Record the failure, stop the simulation and die cleanly;
		// Run/RunUntil will surface the error.
		if e.panicErr == nil {
			e.panicErr = fmt.Errorf("sim: proc %s panicked: %v", p, r)
		}
		e.stopped = true
		p.die()
		return
	}
	// Re-panicking from a goroutine would crash the process without a
	// useful trace through the engine; annotate.
	p.die()
	panic(fmt.Sprintf("sim: proc %s panicked: %v", p, r))
}

// retire ends a proc whose body returned on runner r and gives up the
// baton. Inside the event loop r first joins the idle list, so a spawn
// in the exit's own dispatch chain can take it; if that chain reaches
// the new proc's first resume, the proc starts in place (inPlace). kept
// reports whether the runner stays: outside the loop, or with the list
// full, its goroutine ends.
func (p *Proc) retire(r *runner) (kept, inPlace bool) {
	e := p.engine
	p.state = procDead
	delete(e.procs, p.id)
	if e.tracer != nil {
		e.trace("exit", "proc %s", p.String())
	}
	if !e.direct || e.nIdle >= maxIdle {
		e.release(nil)
		return false, false
	}
	r.p, r.next = nil, e.idle
	e.idle = r
	e.nIdle++
	return true, e.release(&r.Coro) == resumedSelf
}

func (p *Proc) die() {
	p.state = procDead
	p.ev.fn = nil // a spin the kill cut short
	delete(p.engine.procs, p.id)
	if p.engine.tracer != nil {
		p.engine.trace("kill", "proc %s", p.String())
	}
	p.engine.release(nil)
}

// yield releases the baton and blocks until resumed. Must only be called
// by the goroutine that executes the proc, while it runs. In direct mode
// the yielding goroutine dispatches the next event itself: if that event
// is its own resume it returns immediately (zero goroutine switches); if
// it is another proc's resume the baton is handed over directly (one
// switch, not two). A spin of the proc may hand it to another goroutine
// meanwhile; the caller wakes when the proc is handed back, and the
// proc names it again.
func (p *Proc) yield() {
	e := p.engine
	me := p.r
	if e.direct {
		switch e.dispatchNext(me) {
		case resumedSelf:
			return
		case chainEnded:
			e.baton <- struct{}{}
		}
	} else {
		e.baton <- struct{}{}
	}
	me.park(e)
	p.r = me
}

// checkRunning panics unless p is the running proc, outside a spin
// step or before the step's suspension. It stays small enough to
// inline into Advance and Park; notRunning builds the message.
func (p *Proc) checkRunning(op string) {
	if p.suspended || p.engine.current != p || p.state != procRunning {
		p.notRunning(op)
	}
}

func (p *Proc) notRunning(op string) {
	if p.suspended {
		panic(fmt.Sprintf("sim: spin step of proc %s suspended twice (%s)", p, op))
	}
	panic(fmt.Sprintf("sim: %s called on proc %s which is not the running proc", op, p))
}

// Advance consumes d of virtual time: the proc is suspended and resumes
// once the clock reaches now+d. Other procs with earlier events run in
// between — this is how virtual parallelism across simulated CPU cores
// arises from a sequential engine.
//
// Fast path: when the proc's own resume would be strictly the next event
// anyway (no other event is due at or before now+d, Stop has not been
// requested, and the active Run/RunUntil limit is not crossed), the
// engine would pop it back immediately — so the clock moves forward in
// place and the two goroutine handoffs (proc→engine, engine→proc) are
// skipped entirely. The execution order is identical to the slow path.
//
// A negative d, or one that carries the clock past its range, panics
// with the proc's name.
func (p *Proc) Advance(d Duration) {
	p.checkRunning("Advance")
	e := p.engine
	at := e.now.Add(d)
	if at < e.now {
		panic(badDue("proc "+p.String()+" Advance", e.now, d))
	}
	if !e.stopped && at <= e.limit {
		if next := e.peek(); next == nil || at < next.at {
			e.now = at
			p.suspended = p.stepping
			return
		}
	}
	p.state = procReady
	p.ev.at = at
	e.schedule(&p.ev)
	if p.stepping {
		p.suspended = true
		return
	}
	p.yield()
}

// Park suspends the proc indefinitely; it resumes only after another proc
// or a callback calls Unpark.
func (p *Proc) Park() {
	p.checkRunning("Park")
	p.state = procParked
	// Tracing is gated at the call site so the untraced hot path does
	// not pay for boxing the variadic arguments.
	if p.engine.tracer != nil {
		p.engine.trace("park", "proc %s", p.String())
	}
	if p.stepping {
		p.suspended = true
		return
	}
	p.yield()
}

// Unpark schedules a parked proc to resume after delay d. It is the
// low-level wakeup primitive; the kernel layer builds run queues and
// futexes on top of it. Calling Unpark on a proc that is not parked
// panics — higher layers are responsible for state machines that make
// wakeups race-free (the engine's determinism makes such races
// programming errors, not timing accidents). A d that carries the
// clock past its range panics too.
func (p *Proc) Unpark(d Duration) {
	if p.state != procParked {
		panic(fmt.Sprintf("sim: Unpark of proc %s in state %v", p, p.state))
	}
	if d < 0 {
		d = 0
	}
	e := p.engine
	at := e.now.Add(d)
	if at < e.now {
		panic(badDue("proc "+p.String()+" Unpark", e.now, d))
	}
	p.state = procReady
	if e.tracer != nil {
		e.trace("unpark", "proc %s (+%v)", p.String(), d)
	}
	p.ev.at = at
	e.schedule(&p.ev)
}

// Parked reports whether the proc is currently parked.
func (p *Proc) Parked() bool { return p.state == procParked }

// Dead reports whether the proc has exited.
func (p *Proc) Dead() bool { return p.state == procDead }

// Exit terminates the proc immediately from within its own code.
func (p *Proc) Exit() {
	p.checkRunning("Exit")
	panic(ErrKilled)
}

// Spin runs a wait loop as a continuation of the proc instead of on its
// goroutine. step is one pass of the loop: it either reports the wait
// over, returning true without suspending, or ends in exactly one
// suspension — one Advance or Park — and returns false. Inside a step
// those two record the suspension instead of blocking, so work that
// follows a suspension belongs at the start of the next pass.
//
// The first pass runs here, on the proc's goroutine. Each later pass
// runs when the proc's resume event is dispatched, on whichever
// goroutine dispatches it, the way After callbacks run; the proc's
// goroutine blocks once and wakes when a pass reports the wait over. A
// pass resumed by Advance's fast path runs at once. Every event keeps
// the (time, sequence) it would have had on a goroutine loop, as do the
// wakeup count and the proc's busy time, so the schedule is identical.
//
// A step that suspends twice, or returns false without suspending,
// panics with the proc's name. A panic in a pass run on another
// goroutine is re-raised on the proc's own, so it reads as the proc's
// panic (SetTrapPanics). Spin does not nest.
//
// The pass that reports the wait over may hand the proc to another
// goroutine (SetCoro), which then resumes in the caller's place; the
// caller returns once the proc is handed back to it.
func (p *Proc) Spin(step func() bool) {
	p.checkRunning("Spin")
	me := p.r
	p.startSpin(step)
	done, panicked := p.resumeSpin()
	if panicked != nil {
		panic(panicked)
	}
	switch {
	case !done:
		p.yield()
	case p.r != me:
		p.HandOff(me)
	}
}

// spinStep returns the step of the proc's spin, or nil when it is not
// spinning. The step rides in the fn slot of the proc's own event,
// which a resume event never calls; both are single-word func values,
// and the slot is only ever read back as the func() bool it was
// written from (startSpin).
func (p *Proc) spinStep() func() bool {
	return *(*func() bool)(unsafe.Pointer(&p.ev.fn))
}

// startSpin installs step as p's spin continuation.
func (p *Proc) startSpin(step func() bool) {
	if p.ev.fn != nil {
		panic(fmt.Sprintf("sim: nested Spin on proc %s", p))
	}
	p.ev.fn = *(*func())(unsafe.Pointer(&step))
}

// resumeSpin runs the spinning proc's passes until one suspends for
// real: the first on the proc's goroutine, later ones on the goroutine
// that dispatched its resume event. A pass suspended by Advance's fast
// path was resumed in place, so the next one runs at once. It reports
// whether the spin is over, and the panic a pass raised, which ends it
// too; the proc's goroutine then takes over.
func (p *Proc) resumeSpin() (done bool, panicked any) {
	defer func() {
		if r := recover(); r != nil {
			p.stepping, p.suspended = false, false
			done, panicked = true, r
		}
		if done {
			p.ev.fn = nil
		}
	}()
	step := p.spinStep()
	for {
		p.stepping = true
		done = step()
		suspended := p.suspended
		p.stepping, p.suspended = false, false
		switch {
		case done && suspended:
			panic(fmt.Sprintf("sim: spin step of proc %s suspended and reported the wait over", p))
		case done:
			return true, nil
		case !suspended:
			panic(fmt.Sprintf("sim: spin step of proc %s returned without suspending", p))
		case p.state != procRunning:
			return false, nil
		}
	}
}
