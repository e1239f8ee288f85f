package sim

// Coro is the wake handle of a goroutine that runs simulated code: a
// proc's runner, or the goroutine of a user context that procs carry
// (package uctx). The goroutine parks on its own Coro whatever it waits
// for, and a proc names the Coro of the goroutine that executes it
// (Proc.Coro), which is where the engine resumes the proc. Handing a
// proc to another goroutine is renaming its Coro (SetCoro, HandOff).
type Coro struct {
	resume chan resumeMsg
}

// park blocks the goroutine on c until it is woken to run a proc of e:
// a kill unwinds it with ErrKilled, and a panic handed over by a spin
// step or by Raise is re-raised here.
func (c *Coro) park(e *Engine) {
	msg := <-c.resume
	if msg.kill {
		panic(ErrKilled)
	}
	if msg.reraise {
		r := e.stepPanic
		e.stepPanic = nil
		panic(r)
	}
}

// Wake resumes the goroutine parked on c.
func (c *Coro) Wake() { c.resume <- resumeMsg{} }

// Wait parks a goroutine that no proc names (a user context between
// runs) on c until Wake or Kill, and reports whether it was a kill.
func (c *Coro) Wait() (killed bool) { return (<-c.resume).kill }

// Kill makes the Wait of the goroutine parked on c report a kill and
// returns once the goroutine has unwound and called Exit.
func (c *Coro) Kill() {
	ch := c.resume
	ch <- resumeMsg{kill: true}
	<-ch
}

// Exit is the last act of a goroutine that Track registered: Shutdown
// no longer kills it, and after a kill it releases the killer.
func (c *Coro) Exit(killed bool) {
	ch := c.resume
	c.resume = nil
	if killed {
		ch <- resumeMsg{}
	}
}

// Track registers c, the handle of a goroutine the caller is about to
// start, with e: Shutdown kills it if it is still parked then. The
// goroutine must end with c.Exit.
func (e *Engine) Track(c *Coro) {
	c.resume = make(chan resumeMsg)
	e.coros = append(e.coros, c)
}

// Raise resumes the goroutine parked on c with a panic to re-raise, as
// if its own code had panicked with v: a user context reports its
// panic to the goroutine that resumed it this way.
func (e *Engine) Raise(c *Coro, v any) {
	e.stepPanic = v
	c.resume <- resumeMsg{reraise: true}
}

// Coro returns the handle of the goroutine that executes p: its runner,
// or a user context p carries.
func (p *Proc) Coro() *Coro { return p.r }

// SetCoro names c as the goroutine that executes p: from now on the
// engine resumes p there. The caller hands p over to c's goroutine and
// stops running p code itself.
func (p *Proc) SetCoro(c *Coro) { p.r = c }

// HandOff resumes p on the goroutine p names, which SetCoro or a spin
// step has just renamed, and parks the caller, me, until it is woken to
// run p again; p then names me again.
func (p *Proc) HandOff(me *Coro) {
	p.r.resume <- resumeMsg{}
	me.park(p.engine)
	p.r = me
}

// Detach gives p back to owner from a goroutine that runs p on owner's
// behalf (a user context p carries). With step nil, owner resumes p at
// once. Otherwise step runs as p's spin continuation (see Spin), its
// first pass here: when a pass reports the wait over, the engine resumes
// p on the goroutine p names then, owner unless the step handed p on
// (SetCoro). Either way the caller returns without p and must park at
// once on its own Coro, touching no shared state on the way: the engine
// may already run other goroutines.
func (p *Proc) Detach(owner *Coro, step func() bool) {
	p.checkRunning("Detach")
	p.r = owner
	if step == nil {
		owner.Wake()
		return
	}
	p.startSpin(step)
	done, panicked := p.resumeSpin()
	if panicked != nil {
		panic(panicked)
	}
	if done {
		p.r.resume <- resumeMsg{}
		return
	}
	p.engine.release(nil)
}
