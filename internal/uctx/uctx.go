// Package uctx implements user contexts (the paper's UCs): lightweight
// execution contexts with fcontext semantics that are *carried* by kernel
// tasks. A context runs only while some kernel task (a KC in paper terms)
// steps it; swapping contexts on a carrier models swap_ctx(), and a
// context saved under one carrier can be resumed by a different carrier —
// the exact capability BLT's couple()/decouple() protocol exercises.
//
// A context is backed by a goroutine, but control transfer is fully
// synchronous: while a context runs, its carrier's goroutine is parked,
// and the context's code executes kernel operations *as the carrier*
// (c.Carrier().Getpid() etc.). Exactly one goroutine is ever active, so
// the engine's determinism is preserved. Each goroutine parks on a wake
// channel of its own (sim.Coro), and the carrier's proc names the
// goroutine that executes it, so the engine resumes a carrier's charges
// straight on the context that runs it.
//
// swap_ctx comes in three forms. Step is the carrier's: its goroutine
// resumes a context and waits until the context — or any context that
// context transferred to — yields or exits. Save and Transfer are the
// two halves of swap_ctx as a context calls them: Save saves the caller,
// and Transfer loads the next context on the same carrier straight from
// the caller's goroutine, so a context-to-context switch costs one
// goroutine switch instead of two through the carrier, and none when
// the next context is the caller itself. Enter and Leave swap between a
// context and a spin continuation of the carrier (sim.Proc.Spin): the
// continuation's last pass loads a context with Enter, and the engine
// resumes it where it would have resumed the spin's goroutine; after
// Save, Leave hands the carrier back to that goroutine, optionally
// through a new continuation whose first pass runs on the caller.
//
// A panic on a context's goroutine — a bug in the body, or the engine
// killing the carrier's proc mid-Charge — is delivered to the goroutine
// that called Step (or whose spin called Enter) and re-raised there,
// where the engine can trap it. Engine.Shutdown kills the goroutines of
// contexts still parked.
//
// The package also reproduces fcontext's sharp edge: a context value is
// single-use. Resuming a stale snapshot — the Fig. 4 "busy stack" hazard
// that trampoline contexts exist to avoid — is detected and reported as
// ErrStaleContext instead of silently corrupting the stack.
package uctx

import (
	"errors"
	"fmt"

	"repro/internal/kernel"
	"repro/internal/sim"
)

// ErrStaleContext is returned by StepFrom when the snapshot does not
// match the context's current saved state: the stack has been run (and
// therefore changed) by another carrier since the snapshot was taken.
// On real hardware this is silent stack corruption; the simulation makes
// it a detectable error.
var ErrStaleContext = errors.New("uctx: stale context snapshot (stack state changed since save)")

// Kind classifies why a Step returned.
type Kind int

// Step event kinds.
const (
	// EvYield: the context parked itself via Yield and attached a tag
	// for its runtime (scheduler) to interpret.
	EvYield Kind = iota
	// EvExit: the context's body returned; the context is dead.
	EvExit

	// evPanic carries a panic from a context's goroutine (in Tag) to
	// Kill, which re-raises it; Step never returns it.
	evPanic
)

// Event is what a carrier receives when the context it stepped — or a
// context that one transferred to — yields or exits.
type Event struct {
	Kind Kind
	Tag  interface{} // scheduler-defined payload for EvYield
	// Ctx is the context that yielded or exited: the stepped context
	// itself, or one it (transitively) transferred to.
	Ctx *Context
}

// Body is a context's code.
type Body func(c *Context)

// Context is one user context.
type Context struct {
	co   sim.Coro // the goroutine's wake channel
	name string
	body Body
	e    *sim.Engine // tracks the goroutine (Engine.Track)

	// ret is the context whose Step (or Enter) began the running
	// chain; Transfer passes it on. The chain reports its yield or exit
	// to ret's stepper, the goroutine that began it, and leaves the
	// Event in ret's ev.
	ret     *Context
	stepper *sim.Coro
	ev      Event

	started bool
	running bool
	// switching: Save ran, and the goroutine still executes the caller's
	// switching code until Transfer, Leave or Yield parks it.
	switching bool
	done      bool
	killing   bool // a kill woke the goroutine
	carrier   *kernel.Task

	// epoch counts saves (yields): it models the stack state. A
	// snapshot is valid only while the epoch is unchanged.
	epoch uint64

	// Stats.
	steps uint64
}

type killSignal struct{}

// New creates a context. Its body does not start until first stepped.
func New(name string, body Body) *Context {
	return &Context{name: name, body: body}
}

// Name returns the context's diagnostic name.
func (c *Context) Name() string { return c.name }

// Done reports whether the body has returned.
func (c *Context) Done() bool { return c.done }

// Running reports whether some carrier is currently executing the
// context.
func (c *Context) Running() bool { return c.running }

// Steps reports how many times the context has been resumed, by Step or
// by Transfer.
func (c *Context) Steps() uint64 { return c.steps }

// Carrier returns the kernel task currently carrying the context. Only
// meaningful from within the context's body while running.
func (c *Context) Carrier() *kernel.Task {
	if !c.running {
		panic(fmt.Sprintf("uctx: Carrier() outside a running step of %s", c.name))
	}
	return c.carrier
}

// String implements fmt.Stringer.
func (c *Context) String() string { return "uc:" + c.name }

// Step resumes the context on the given carrier until it, or a context
// it transferred to, yields or exits; Event.Ctx names which. This is
// swap_ctx() into the context's most recently saved state; Step panics
// if the context is already running (two carriers cannot execute one
// stack) or done. A panic on any context of the chain is re-raised here.
func (c *Context) Step(carrier *kernel.Task) Event {
	c.checkResumable("Step")
	if carrier == nil {
		panic("uctx: Step with nil carrier")
	}
	p := carrier.Proc()
	me := p.Coro()
	c.ret, c.stepper = c, me
	c.load(carrier)
	p.HandOff(me)
	ev := c.ev
	c.ev = Event{}
	return ev
}

// Enter loads the context on carrier from the last pass of a spin
// continuation of carrier, run on whatever goroutine (sim.Proc.Spin):
// when the pass reports the wait over, the engine resumes the context
// as the carrier where it would have resumed the spin's goroutine, and
// the context reports its exit, or a panic, to that goroutine. The
// context leaves the carrier again with Leave.
func (c *Context) Enter(carrier *kernel.Task) {
	c.checkResumable("Enter")
	c.ret, c.stepper = c, carrier.Proc().Coro()
	c.load(carrier)
}

// checkResumable panics unless the context is parked: neither running,
// nor between Save and Transfer, nor done.
func (c *Context) checkResumable(op string) {
	if c.running || c.switching {
		panic(fmt.Sprintf("uctx: %s of %s while already running on %s", op, c.name, c.carrier))
	}
	if c.done {
		panic(fmt.Sprintf("uctx: %s of finished context %s", op, c.name))
	}
}

// load makes carrier the context's carrier and marks it running; the
// carrier's proc names the context's goroutine from now on. The
// goroutine starts, parked, on first use; the caller wakes it.
func (c *Context) load(carrier *kernel.Task) {
	c.carrier = carrier
	c.running = true
	c.steps++
	if !c.started {
		c.started = true
		c.e = carrier.Kernel().Engine()
		c.e.Track(&c.co)
		go c.run()
	}
	carrier.Proc().SetCoro(&c.co)
}

// park blocks the context's goroutine until it is resumed; a kill, by
// Kill or by Engine.Shutdown, unwinds the body.
func (c *Context) park() {
	if c.co.Wait() {
		c.killing = true
		panic(killSignal{})
	}
}

// report hands ev, the chain's yield or exit, to the goroutine that
// began the chain; a panic is re-raised there.
func (c *Context) report(ev Event) {
	h := c.ret
	if ev.Kind == evPanic {
		c.e.Raise(h.stepper, ev.Tag)
		return
	}
	h.ev = ev
	h.stepper.Wake()
}

// Snapshot is a saved context value, as produced by swap_ctx's save
// half. It is valid until the context next runs.
type Snapshot struct {
	ctx   *Context
	epoch uint64
}

// SnapshotNow captures the context's current saved state. The context
// must not be running.
func (c *Context) SnapshotNow() Snapshot {
	if c.running {
		panic(fmt.Sprintf("uctx: SnapshotNow of running context %s", c.name))
	}
	return Snapshot{ctx: c, epoch: c.epoch}
}

// StepFrom resumes the context from an explicit snapshot. If the context
// has run since the snapshot was taken, the snapshot's stack image no
// longer matches reality and ErrStaleContext is returned — this is the
// decoupling hazard of the paper's Fig. 4 made visible.
func (c *Context) StepFrom(snap Snapshot, carrier *kernel.Task) (Event, error) {
	if snap.ctx != c {
		return Event{}, errors.New("uctx: snapshot belongs to a different context")
	}
	if snap.epoch != c.epoch {
		return Event{}, fmt.Errorf("%w: %s saved at epoch %d, now %d",
			ErrStaleContext, c.name, snap.epoch, c.epoch)
	}
	return c.Step(carrier), nil
}

// run is the context's goroutine. Whatever ends the body — return or
// panic — is reported to the goroutine that began the running chain,
// and a kill to Kill.
func (c *Context) run() {
	defer func() {
		ev := Event{Kind: EvExit, Ctx: c}
		if r := recover(); r != nil {
			if _, killed := r.(killSignal); !killed {
				ev = Event{Kind: evPanic, Tag: r, Ctx: c}
			}
		}
		c.done = true
		c.running = false
		c.switching = false
		c.carrier = nil
		if c.killing {
			c.ev = ev
			c.co.Exit(true)
			return
		}
		c.co.Exit(false)
		c.report(ev)
	}()
	c.park()
	c.body(c)
}

// save is swap_ctx's save half: the epoch bump stales older snapshots.
func (c *Context) save() {
	c.epoch++
	c.running = false
	c.carrier = nil
}

// Save is the save half of swap_ctx, called from inside the running
// body: it bumps the stack epoch and the context stops counting as
// running. The goroutine goes on running the caller's switching code —
// as the carrier the caller captured beforehand — until Transfer (or
// Yield) parks it.
func (c *Context) Save() {
	c.assertInBody("Save")
	c.save()
	c.switching = true
}

// Transfer is the load half of swap_ctx, called after Save on the saved
// context's goroutine: it resumes next on carrier straight from here and
// parks the caller until Step or Transfer resumes it again. next reports
// to the same stepper the caller would have. When next is the caller
// itself, it just resumes — no goroutine switch.
func (c *Context) Transfer(next *Context, carrier *kernel.Task) {
	if !c.switching {
		panic(fmt.Sprintf("uctx: Transfer from %s without Save", c.name))
	}
	if carrier == nil {
		panic("uctx: Transfer with nil carrier")
	}
	if next == c {
		c.switching = false
		c.load(carrier)
		return
	}
	next.checkResumable("Transfer")
	c.switching = false
	next.ret = c.ret
	next.load(carrier)
	next.co.Wake()
	c.park()
}

// Leave is swap_ctx from a context into the carrier's trampoline, a spin
// continuation: called after Save on the saved context's goroutine, it
// gives carrier back to the goroutine whose spin loaded the context
// (Enter) and parks the caller until Step or Transfer resumes it. With
// step nil that goroutine resumes at once; otherwise step runs as the
// carrier's spin continuation on its behalf, its first pass here
// (sim.Proc.Detach).
func (c *Context) Leave(carrier *kernel.Task, step func() bool) {
	if !c.switching {
		panic(fmt.Sprintf("uctx: Leave from %s without Save", c.name))
	}
	c.switching = false
	carrier.Proc().Detach(c.ret.stepper, step)
	c.park()
}

// Yield parks the context, handing the tagged event to the stepper of
// the running chain. It returns when the context is next resumed,
// possibly by a different carrier — the paper's context migration
// between KCs. Yielding bumps the stack epoch: previously taken
// snapshots go stale. After Save, Yield reports the already saved
// context without saving it again.
func (c *Context) Yield(tag interface{}) {
	if c.switching {
		c.switching = false
	} else {
		c.assertInBody("Yield")
		c.save()
	}
	c.report(Event{Kind: EvYield, Tag: tag, Ctx: c})
	c.park()
}

// Kill terminates a parked context (its body unwinds), including one
// parked inside Transfer or Leave. Engine.Shutdown kills every context
// still parked this way. No-op on done contexts.
func (c *Context) Kill() {
	if c.done {
		return
	}
	if c.running || c.switching {
		panic(fmt.Sprintf("uctx: Kill of running context %s", c.name))
	}
	if !c.started {
		c.done = true
		return
	}
	c.co.Kill()
	if ev := c.ev; ev.Kind == evPanic {
		c.ev = Event{}
		panic(ev.Tag)
	}
}

func (c *Context) assertInBody(op string) {
	if !c.running {
		panic(fmt.Sprintf("uctx: %s called outside the running body of %s", op, c.name))
	}
}
