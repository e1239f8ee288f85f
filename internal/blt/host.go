package blt

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/probe"
	"repro/internal/ring"
)

// semProt is the protection for runtime futex words.
const semProt = mem.ProtRead | mem.ProtWrite

// KCHost owns one original kernel context (KC) and the trampoline it
// idles in. In the default N:N mode a host serves exactly one BLT; in
// the M:N extension several BLTs share a host, in which case they also
// share its kernel state (PID, FDs) — "similar to the relation of the
// conventional process and thread" (paper §VII).
type KCHost struct {
	pool *Pool
	task *kernel.Task
	name string
	core int // the syscall core the KC is pinned to

	// queue holds BLTs whose UC wants to run coupled on this KC
	// (couple requests, plus the initial KLT run at creation).
	queue ring.Q[*BLT]
	slot  idleSlot

	// stage is where the trampoline's next pass starts, and coupling
	// the BLT it has dequeued and is loading. step is the trampoline
	// as a spin step, bound once at creation; nil under BLOCKING, where
	// the KC's goroutine runs the stages as a loop.
	stage    tcStage
	coupling *BLT
	step     func() bool

	tcStack   uint64 // the trampoline context's small stack
	residents int    // live BLTs whose original KC this is
	lastExit  int
	dead      bool // the KC task has returned; no further adoption
	killed    bool // the KC died by fault injection (kc_kill)
	// restartable: task:restart opted the host in at creation (the
	// supervisor's restart budget), and has not quarantined it since.
	restartable bool

	// running is the BLT currently coupled and executing on this KC.
	running *BLT
}

// TCStack returns the trampoline context's stack address.
func (h *KCHost) TCStack() uint64 { return h.tcStack }

// Residents reports how many live BLTs use this KC as their original KC.
func (h *KCHost) Residents() int { return h.residents }

// SpunIdle reports CPU time this KC burned busy-waiting.
func (h *KCHost) SpunIdle() simDuration { return h.slot.Spun() }

// adopt registers a freshly spawned BLT with this host and enqueues its
// first coupled run (a BLT is *created as a KLT*). Adopting into a host
// whose KC has already terminated (all previous residents exited) is an
// error: the kernel context is gone, exactly as a real exited process
// cannot gain threads.
func (h *KCHost) adopt(b *BLT, creator *kernel.Task) error {
	if h.dead {
		return ErrHostDead
	}
	h.residents++
	b.coupled = true
	b.ucSaved = true // a new UC has no prior save to wait for
	h.queue.Push(b)
	creator.Charge(h.pool.kern.Machine().Costs.RunQueueOp)
	h.slot.kick(creator)
	return nil
}

// enqueueCoupled is Table I Seq.1+2: a decoupled UC (running on carrier,
// a scheduler KC) requests coupling; the idle original KC is unblocked.
//
// The dead re-check after the charge is load-bearing: Couple's fast-path
// check and this append straddle a virtual-time yield point (the queue-op
// charge), so a fault-killed KC can die — and drain its queue — in
// between. A request appended after that drain would never be served or
// bounced, so it is bounced here instead, exactly as die would have.
func (h *KCHost) enqueueCoupled(b *BLT, carrier *kernel.Task) {
	carrier.Charge(h.pool.kern.Machine().Costs.RunQueueOp)
	if h.dead && h.canRespawn() {
		h.tryRespawn(carrier)
	}
	if h.dead {
		b.coupled = false
		b.coupleErr = ErrHostDead
		if h.pool.kern.Tracing() {
			h.pool.kern.Trace("blt", "kc: dead; bounce %s to sched%d", b.name, b.home.index)
		}
		b.home.enqueue(b, carrier)
		return
	}
	h.queue.Push(b)
	h.slot.kick(carrier)
}

// canRespawn reports whether a dead KC may come back: only fault-killed
// KCs that are still restartable qualify. A KC that exited naturally
// (all residents done) stays dead, like any exited process.
func (h *KCHost) canRespawn() bool {
	return h.killed && h.restartable
}

// tryRespawn asks task:restart (Site = the KC's name) whether a
// fault-killed KC comes back. A positive Delay grants it: the requesting
// carrier waits out that backoff, then a new kernel task (same name,
// same syscall core) replaces the dead one.
// The post-sleep dead re-check matters: several carriers can observe
// the same death, and whoever respawns first covers the rest. Drop
// quarantines the KC; the zero verdict (no supervisor) leaves it dead,
// as does a thread-limit rejection, and callers fall through to the
// bounce path.
func (h *KCHost) tryRespawn(carrier *kernel.Task) {
	p := h.pool
	v := p.kern.RestartVerdict(carrier, h.task.Name(), 1)
	if v.Drop {
		h.restartable = false // quarantined: this KC will not be coming back
		return
	}
	if v.Delay <= 0 {
		return
	}
	carrier.Nanosleep(v.Delay)
	if !h.dead {
		return // a concurrent requester respawned it while we slept
	}
	h.task = carrier.ClonePinned("kc."+h.name, kernel.PiPProcessFlags, h.core, h.main)
	h.dead = false
	h.killed = false
	if p.kern.Tracing() {
		p.kern.Emit(carrier, "supervise", "kc.respawn: kc.%s restarted on core %d", h.name, h.core)
	}
}

// idleDone is the trampoline's wake condition: a couple request is
// queued, or no resident is left.
func (h *KCHost) idleDone() bool { return h.queue.Len() > 0 || h.residents == 0 }

func (h *KCHost) dequeue(t *kernel.Task) *BLT {
	t.Charge(h.pool.kern.Machine().Costs.RunQueueOp)
	return h.queue.Pop()
}

// tcStage is where the trampoline's next pass starts.
type tcStage uint8

const (
	tcSaved   tcStage = iota // a BLT decoupled: publish its save, swap in
	tcDraw                   // draw kc_kill on going idle
	tcIdle                   // idle; draw kc_kill with a request queued
	tcDequeue                // take the request after the queue-op charge
	tcLoad                   // sync point 1, then swap to the UC
	tcEnter                  // hand the KC to the UC
)

// trampoline is the trampoline context (TC): what the original KC runs
// while its UC is away. It idles per the pool's policy and hands the KC
// straight to each coupling (or newly created) BLT. Running the idle
// wait on the KC's own small trampoline stack — never on a UC stack —
// is exactly what makes decoupling safe (paper §V-A).
//
// It is written in stages, each ending in at most one Charge, so that
// it runs as the KC's spin continuation under BUSYWAIT (see run): on
// whichever goroutine dispatches the KC's events, with its first pass
// on the decoupling UC's goroutine (Decouple). Under BLOCKING the KC's
// goroutine runs the same stages as a loop. A pass reports true when
// the trampoline is over: the KC is handed to h.running (uctx Enter),
// or, with h.running nil, the trampoline exits.
//
// The kc_kill fault site lives here, and only here: the KC can die right
// after going idle (its UC mid-decouple on a scheduler) or right after
// waking for a couple request (the requester mid-couple), but never
// inside the ucSaved handshake — matching a real SIGKILL, which a KC
// blocked in futex_wait or sched_yield can absorb at any time, while the
// handshake windows are a few uninterruptible instructions.
func (h *KCHost) trampoline() bool {
	t := h.task
	k := h.pool.kern
	costs := &k.Machine().Costs
	for {
		switch h.stage {
		case tcSaved:
			// The decoupled UC is saved: sync point 2 (Table I
			// Seq.8/9), the scheduler may load it. Then switch into
			// the trampoline (swap only: TC<->UC transitions do not
			// reload the TLS register, per §V-B).
			b := h.running
			b.ucSaved = true
			if k.Tracing() {
				k.Trace("blt", "kc: %s saved; blocking on TC", b.name) // Seq.8
			}
			h.running = nil
			h.stage = tcDraw
			t.Charge(costs.UserCtxSwap)
			return false
		case tcDraw:
			if k.FaultShouldDie(t, probe.SiteKCKill) {
				h.killed = true // mid-decouple: the KC dies while idle
				if k.Tracing() {
					k.Emit(t, "fault", "kc_kill: %s dies idle", t.Name())
				}
				return true
			}
			h.stage = tcIdle
		case tcIdle:
			if !h.slot.pass(t) {
				return false
			}
			if h.residents == 0 && h.queue.Len() == 0 {
				return true
			}
			if k.FaultShouldDie(t, probe.SiteKCKill) {
				h.killed = true // mid-couple: a request is queued, never served
				if k.Tracing() {
					k.Emit(t, "fault", "kc_kill: %s dies with couple request queued", t.Name())
				}
				return true
			}
			h.stage = tcDequeue
			t.Charge(costs.RunQueueOp)
			return false
		case tcDequeue:
			h.coupling = h.queue.Pop()
			h.stage = tcLoad
		case tcLoad:
			// Synchronization point 1 (Table I Seq.3/4): do not load
			// the UC before the scheduler has finished saving it; the
			// window is a few instructions, so tight-spin.
			b := h.coupling
			if !b.ucSaved {
				t.Charge(costs.AtomicOp)
				return false
			}
			if k.Tracing() {
				k.Trace("blt", "kc: dequeue(%s)", b.name) // Table I Seq.3 (KC side)
				// Table I Seq.4: swap_ctx(TC0, UC0).
				k.Trace("blt", "kc: swap_ctx(TC, %s)", b.name)
			}
			h.stage = tcEnter
			t.Charge(costs.UserCtxSwap)
			return false
		default: // tcEnter
			b := h.coupling
			h.coupling = nil
			h.running = b
			// Open the couple→exec→decouple bracket on the KC's core;
			// Decouple (or the exit path in main) closes it.
			if k.Tracing() {
				b.bracket = k.BeginSpan(t, "blt.span", b.name, "coupled "+b.name)
			}
			b.uc.Enter(t)
			return true
		}
	}
}

// run runs the trampoline from h.stage on the KC's goroutine, and
// returns when it exits (h.running nil) or the BLT it coupled exits.
// Under BUSYWAIT the trampoline is the KC's spin continuation: a BLT
// that decouples starts the next one itself (Decouple), so this
// goroutine sleeps until the end. Under BLOCKING this goroutine runs
// the stages, handing the KC to each coupling BLT and back.
func (h *KCHost) run(t *kernel.Task) {
	if h.step != nil {
		t.Spin(h.step)
		return
	}
	me := t.Proc().Coro()
	for {
		for !h.trampoline() {
		}
		if h.running == nil {
			return
		}
		t.Proc().HandOff(me)
		if h.running.uc.Done() {
			return
		}
	}
}

// KilledExitStatus is the exit status a fault-killed KC or scheduler
// task reports: 128+9, the shell convention for death by SIGKILL.
const KilledExitStatus = 137

// main is the original KC's kernel-task body. It runs the trampoline,
// which carries on by itself from then on — handing the KC to each
// coupling UC, which hands it back when it decouples — and only returns
// here when the trampoline exits (the KC dies or has no residents left)
// or a coupled UC exits.
func (h *KCHost) main(t *kernel.Task) int {
	costs := h.pool.kern.Machine().Costs
	for {
		// Switch into the trampoline (swap only, as above).
		t.Charge(costs.UserCtxSwap)
		h.stage = tcDraw
		h.run(t)
		b := h.running
		if b == nil {
			h.dead = true
			if h.killed {
				h.die(t)
				return KilledExitStatus
			}
			return h.lastExit
		}
		if !b.uc.Done() {
			panic(fmt.Sprintf("blt: kc.%s coupled %v, which returned the KC without exiting", h.name, b))
		}
		// Paper rule 7: a BLT always terminates as a KLT coupled with
		// its original KC.
		h.pool.kern.EndSpan(t, b.name, b.bracket)
		b.bracket = 0
		b.done = true
		h.lastExit = b.exitStatus
		h.residents--
		h.running = nil
	}
}

// die bounces every queued couple request back to its BLT's home
// scheduler with coupleErr set: the requester resumes inside Couple,
// observes ErrHostDead and continues decoupled. BLTs queued for their
// initial coupled run (created but never dispatched) are downgraded to a
// decoupled start the same way — their kernel context is gone before
// their first instruction, like a thread whose process died during
// pthread_create.
func (h *KCHost) die(t *kernel.Task) {
	for h.queue.Len() > 0 {
		b := h.dequeue(t)
		b.coupled = false
		b.coupleErr = ErrHostDead
		if h.pool.kern.Tracing() {
			h.pool.kern.Trace("blt", "kc: dead; bounce %s to sched%d", b.name, b.home.index)
		}
		b.home.enqueue(b, t)
	}
}
