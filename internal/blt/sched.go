package blt

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/probe"
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/uctx"
)

// simDuration aliases sim.Duration for intra-package signatures.
type simDuration = sim.Duration

// Scheduler is one scheduling BLT: a kernel thread pinned to a program
// core that runs decoupled UCs from its ready queue (the paper's Fig. 6:
// "BLTs are created to run user program and to act as a scheduler").
type Scheduler struct {
	pool *Pool
	core int
	task *kernel.Task

	// q is the ready queue of decoupled UCs: a ring buffer, because the
	// slice front-copy dequeue it replaces cost O(queue) per dispatch —
	// quadratic over a deep backlog of runnable UCs.
	q    ring.Q[*BLT]
	slot idleSlot

	// currentTLS tracks the TLS value the scheduler's KC register holds
	// to skip redundant loads when the same UC runs back-to-back.
	currentTLS uint64

	// running is the BLT whose UC the scheduler is currently stepping
	// (nil between dispatches). The consistency auditor uses it to
	// attribute system-calls made by decoupled UCs.
	running *BLT

	index int  // position in the pool's scheduler list
	dead  bool // killed by fault injection (sched_kill)

	// stealBuf is the preallocated scratch a ULTPolicy's StealOrder
	// fills with victim indices (nil without a policy).
	stealBuf []int

	// Stats.
	dispatches uint64
	steals     uint64
}

// Dead reports whether the scheduler was killed by fault injection.
func (s *Scheduler) Dead() bool { return s.dead }

// Steals reports how many UCs this scheduler stole from peers.
func (s *Scheduler) Steals() uint64 { return s.steals }

// Running returns the BLT currently executing on this scheduler, if any.
func (s *Scheduler) Running() *BLT { return s.running }

// Core returns the scheduler's pinned core id.
func (s *Scheduler) Core() int { return s.core }

// Task returns the scheduler's kernel task.
func (s *Scheduler) Task() *kernel.Task { return s.task }

// QueueLen reports the number of ready UCs.
func (s *Scheduler) QueueLen() int { return s.q.Len() }

// ReadyAt returns the i'th ready UC (0 = FIFO head) without removing it.
// Scheduler policies inspect the queue through it from PickReady.
func (s *Scheduler) ReadyAt(i int) *BLT { return s.q.At(i) }

// Index returns the scheduler's position in the pool's scheduler list.
func (s *Scheduler) Index() int { return s.index }

// Pool returns the owning pool.
func (s *Scheduler) Pool() *Pool { return s.pool }

// Dispatches reports how many UC switch-ins the scheduler performed.
func (s *Scheduler) Dispatches() uint64 { return s.dispatches }

// SpunIdle reports CPU time burned busy-waiting for work.
func (s *Scheduler) SpunIdle() sim.Duration { return s.slot.Spun() }

// enqueue adds a decoupled (or yielding) UC to the ready queue; the
// caller pays the queue cost and the wake kick. Under work stealing
// every scheduler is kicked, since any of them may claim the UC.
// Enqueues aimed at a dead scheduler are redirected to the next live
// one, which becomes the BLT's new home.
func (s *Scheduler) enqueue(b *BLT, from *kernel.Task) {
	if s.dead {
		live := s.pool.nextLiveSched(s.index)
		if live == nil {
			// Unreachable: the last live scheduler is never killed.
			panic(fmt.Sprintf("blt: enqueue(%s) with every scheduler dead", b))
		}
		b.home = live
		live.enqueue(b, from)
		return
	}
	from.Charge(s.pool.kern.Machine().Costs.RunQueueOp)
	s.q.Push(b)
	if s.pool.cfg.WorkStealing {
		for _, p := range s.pool.scheds {
			p.slot.kick(from)
		}
		return
	}
	s.slot.kick(from)
}

// dequeue pops the next ready UC — the FIFO head, or the policy's
// PickReady choice. Charging the queue-lock cost may let a stealing peer
// drain the queue first, so the emptiness is re-checked after the
// charge; nil means "lost the race".
func (s *Scheduler) dequeue(t *kernel.Task) *BLT {
	t.Charge(s.pool.kern.Machine().Costs.RunQueueOp)
	if pol := s.pool.policy; pol != nil && s.q.Len() > 0 {
		if i := pol.PickReady(s); i > 0 && i < s.q.Len() {
			return s.q.RemoveAt(i)
		}
	}
	return s.q.Pop()
}

// loop is the scheduler's kernel-task body: acquire a UC, switch it
// in, step it, and handle whatever the UCs it runs hand back.
func (s *Scheduler) loop(t *kernel.Task) int {
	for {
		b := s.acquire(t)
		if b == nil {
			if s.dead {
				return KilledExitStatus
			}
			return 0
		}
		s.switchIn(t, b)
		s.handle(t, b.uc.Step(t))
		if s.dead {
			return KilledExitStatus
		}
	}
}

// acquire obtains the next runnable BLT: from the local queue, by
// stealing from a peer scheduler (when Config.WorkStealing is on), or
// after idling per the pool policy. Returns nil once the pool stops.
func (s *Scheduler) acquire(t *kernel.Task) *BLT {
	for {
		if s.killDrawn(t) {
			s.die(t)
			return nil
		}
		if s.q.Len() > 0 {
			if b := s.dequeue(t); b != nil {
				return b
			}
			continue
		}
		if s.pool.stopped {
			return nil
		}
		if s.pool.cfg.WorkStealing {
			if b := s.steal(t); b != nil {
				return b
			}
		}
		if pol := s.pool.policy; pol != nil {
			pol.OnIdle(s)
		}
		s.slot.wait(t)
	}
}

// idleDone is acquire's wake condition: a UC is ready here, the pool
// stopped, or a peer holds one to steal.
func (s *Scheduler) idleDone() bool { return s.q.Len() > 0 || s.pool.stopped || s.stealable() }

// killDrawn draws the sched_kill fault site, which lives at the top of
// acquire — between UC dispatches, never while a UC context is loaded —
// so a kill can strand queued UCs (drained by die) but never a
// half-switched context. The last live scheduler is immune: with every
// program core dead no UC could ever run again, which models an
// operator who would restart the service rather than a recoverable
// fault.
func (s *Scheduler) killDrawn(t *kernel.Task) bool {
	return s.pool.kern.FaultShouldDie(t, probe.SiteSchedKill) && s.pool.liveScheds() > 1
}

// die marks the scheduler dead and drains its ready queue into the next
// live scheduler, which adopts the stranded UCs as their new home. The
// pool keeps running on the remaining program cores.
func (s *Scheduler) die(t *kernel.Task) {
	s.dead = true
	live := s.pool.nextLiveSched(s.index)
	if k := s.pool.kern; k.Tracing() {
		k.Emit(t, "fault", "sched_kill: sched%d dies, re-homing %d UCs to sched%d", s.index, s.q.Len(), live.index)
		k.Trace("blt", "sched%d: killed; re-homing %d UCs to sched%d", s.index, s.q.Len(), live.index)
	}
	for s.q.Len() > 0 {
		b := s.dequeue(t)
		if b == nil {
			continue
		}
		b.home = live
		live.enqueue(b, t)
	}
}

// stealable reports whether some peer has surplus work.
func (s *Scheduler) stealable() bool {
	if !s.pool.cfg.WorkStealing {
		return false
	}
	for _, p := range s.pool.scheds {
		if p != s && p.q.Len() > 0 {
			return true
		}
	}
	return false
}

// steal takes the newest UC from the first non-empty peer queue,
// scanning deterministically from the next index (interprocess work
// stealing over the shared address space: the queues are plain shared
// data, so a steal is two queue operations plus the peer-lock atomic).
// A ULTPolicy may reorder the victim scan via StealOrder.
func (s *Scheduler) steal(t *kernel.Task) *BLT {
	n := len(s.pool.scheds)
	if pol := s.pool.policy; pol != nil {
		if order := pol.StealOrder(s, s.stealBuf[:0]); order != nil {
			s.stealBuf = order // keep grown capacity for the next scan
			for _, vi := range order {
				if vi < 0 || vi >= n || vi == s.index {
					continue
				}
				if b := s.stealFrom(t, s.pool.scheds[vi]); b != nil {
					return b
				}
			}
			return nil
		}
	}
	for i := 1; i < n; i++ {
		if b := s.stealFrom(t, s.pool.scheds[(s.index+i)%n]); b != nil {
			return b
		}
	}
	return nil
}

// stealFrom attempts one steal against victim p: charge the peer-lock
// atomic plus two queue operations, re-check (the victim or another
// thief may win the race meanwhile), and take the newest UC.
func (s *Scheduler) stealFrom(t *kernel.Task, p *Scheduler) *BLT {
	if p.q.Len() == 0 {
		return nil
	}
	costs := s.pool.kern.Machine().Costs
	t.Charge(costs.AtomicOp + 2*costs.RunQueueOp)
	if p.q.Len() == 0 {
		return nil // the victim (or another thief) won the race
	}
	b := p.q.PopTail()
	s.steals++
	ps := s.pool.kern.Probes()
	if ps.Attached(probe.PSchedSteal) {
		c := ps.Begin(probe.PSchedSteal, s.pool.kern.Engine().Now())
		c.Task = t
		c.Val = int64(p.index)
		ps.Fire(c)
	}
	return b
}

// switchIn is the switch-in half of a dispatch: swap plus TLS load under
// ULP semantics, sync point 2, and the dispatch accounting. The caller
// then resumes b — by Step from the scheduler's goroutine, or by
// Transfer from the goroutine of the UC that yielded (yieldFrom).
func (s *Scheduler) switchIn(t *kernel.Task, b *BLT) {
	costs := s.pool.kern.Machine().Costs
	t.Charge(costs.UserCtxSwap)
	s.loadTLS(t, b.tlsBase)
	if s.pool.cfg.SwitchSigmask {
		// ucontext-style switching: the signal mask follows the UC.
		t.Charge(costs.SigmaskSwitch)
		t.SetSigmaskRaw(b.sigMask)
	}
	// Sync point 2 (Table I Seq.8/9): the UC was enqueued before its
	// context finished saving on the original KC; tight-spin until the
	// save is published (the window is a few instructions).
	for !b.ucSaved {
		t.Charge(costs.AtomicOp)
	}
	if b.uc.Running() {
		panic(fmt.Sprintf("blt: %s marked saved but still running", b))
	}
	if d := s.pool.kern.FaultDelay(t, probe.SiteSchedDelay); d > 0 {
		// Injected scheduler latency: the UC sits ready while its
		// scheduler dawdles — widening the Table I race windows.
		t.Charge(d)
	}
	s.dispatches++
	ps := s.pool.kern.Probes()
	if ps.Attached(probe.PSchedULT) {
		c := ps.Begin(probe.PSchedULT, s.pool.kern.Engine().Now())
		c.Task = t
		ps.Fire(c)
	}
	if s.pool.kern.Tracing() {
		s.pool.kern.Trace("blt", "sched%d: swap_ctx(.., %s)", s.index, b.name) // Seq.9 after decouple
	}
	s.running = b
}

// requeue is the scheduler half of a ULT yield: the UC goes back to the
// tail of the ready queue. If the queue was otherwise empty the same UC
// runs again next (the sched_yield-alone analogue at user level).
func (s *Scheduler) requeue(t *kernel.Task, b *BLT) {
	t.Charge(s.pool.kern.Machine().Costs.RunQueueOp)
	s.q.Push(b)
}

// yieldFrom runs a ULT yield's scheduler pass on the yielding UC's own
// goroutine — the steps the scheduler's goroutine would run, in the same
// order on the same task: requeue, one pass of acquire, and the
// switch-in half of the dispatch — then transfers straight to the UC it
// dequeued (b itself when no other was ready). When that UC waits in
// YieldUntil, the pass runs its poll right after the switch-in, where
// the UC's own goroutine would have run it: a hit clears the poll and
// ends the pass; a miss is that UC's yield, done in place, and the pass
// goes on. A sched_kill draw is reported by b's context, whichever UC's
// yield drew it, to the scheduler's goroutine, which dies; b then
// resumes on its new home. Only pools without work stealing come here:
// without thieves nobody else pops this queue, so it still holds at
// least the UC just requeued.
func (s *Scheduler) yieldFrom(b *BLT) {
	if s.running != b {
		panic(fmt.Sprintf("blt: %s yields on sched%d, which runs %v", b, s.index, s.running))
	}
	t := b.uc.Carrier()
	b.uc.Save()
	next := b
	for {
		s.running = nil
		s.requeue(t, next)
		if s.killDrawn(t) {
			b.uc.Yield(tagSchedKill)
			return
		}
		next = s.dequeue(t)
		s.switchIn(t, next)
		if next.poll == nil || next.poll(t) {
			break
		}
		next.yields++ // the missed poll's yield
	}
	next.poll = nil
	b.uc.Transfer(next.uc, t)
}

// handle processes the event that ends a Step: the exit of the UC
// switched in last, its couple request (sync point 1), a ULT yield in a
// work-stealing pool, or a sched_kill a direct yield drew.
func (s *Scheduler) handle(t *kernel.Task, ev uctx.Event) {
	b := s.running
	s.running = nil
	if ev.Kind == uctx.EvYield && ev.Tag == tagSchedKill {
		s.die(t)
		return
	}
	if b == nil || ev.Ctx != b.uc {
		panic(fmt.Sprintf("blt: sched%d stepped %v but %v reported", s.index, b, ev.Ctx))
	}
	if ev.Kind == uctx.EvExit {
		if b.orphaned {
			// The UC could not couple for its terminal run because its
			// original KC died; reap it here instead of hanging the pool.
			// Its exit status stays visible via ExitStatus/Orphaned.
			b.done = true
			b.host.residents--
			if s.pool.kern.Tracing() {
				s.pool.kern.Trace("blt", "sched%d: reap orphan %s (status=%d)", s.index, b.name, b.exitStatus)
			}
			return
		}
		panic(fmt.Sprintf("blt: %s exited while decoupled; BLTs must terminate as KLTs", b))
	}
	costs := s.pool.kern.Machine().Costs
	switch tg := ev.Tag.(yieldTag); tg {
	case tagYield:
		s.requeue(t, b)
	case tagCoupling:
		// Sync point 1 of Table I: publish that the UC context is
		// saved so the original KC may load it. The scheduler then
		// resumes its own context (swap + its own TLS), accounting for
		// the paper's "two times of loading TLS register" per
		// couple/decouple cycle.
		b.ucSaved = true
		if s.pool.kern.Tracing() {
			s.pool.kern.Trace("blt", "sched%d: %s saved (sync point 1)", s.index, b.name) // Seq.3
		}
		t.Charge(costs.UserCtxSwap)
		s.loadTLS(t, s.slot.word) // the scheduler thread's own descriptor
		if s.pool.cfg.SwitchSigmask {
			t.Charge(costs.SigmaskSwitch)
			t.SetSigmaskRaw(0)
		}
	default:
		panic(fmt.Sprintf("blt: unexpected tag %v from decoupled %s", tg, b))
	}
}

// loadTLS loads the KC's TLS register if ULP semantics are enabled and
// the value actually changes.
func (s *Scheduler) loadTLS(t *kernel.Task, base uint64) {
	if !s.pool.cfg.SwitchTLS || base == s.currentTLS {
		return
	}
	t.LoadTLS(base)
	s.currentTLS = base
}
