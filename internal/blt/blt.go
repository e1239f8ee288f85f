// Package blt implements Bi-Level Threads — the paper's core
// contribution. A BLT is created as a kernel-level thread (a UC coupled
// with its original KC) and can become a user-level thread at runtime by
// decoupling its UC from the KC, and a KLT again by coupling back:
//
//	decouple(): UC detaches from the original KC and is enqueued on a
//	    scheduler; the KC idles (busy-waiting or blocked on a futex) in
//	    its trampoline context.
//	couple(): the UC migrates back to its original KC, so system-calls
//	    between couple() and decouple() execute on the KC that owns the
//	    BLT's kernel state — preserving system-call consistency.
//
// The implementation follows the paper's Table I protocol, including the
// trampoline context (§V-A) that avoids the Fig. 4 busy-stack hazard and
// the two synchronization points of the couple/decouple handshake. Both
// idle policies of §VI-C (BUSYWAIT and BLOCKING) are provided, and M:N
// operation (§VII: several UCs sharing one original KC) is supported via
// KCHost.
package blt

import (
	"errors"
	"fmt"

	"repro/internal/kernel"
	"repro/internal/probe"
	"repro/internal/uctx"
)

// Errors reported by the BLT runtime.
var (
	ErrPoolStopped = errors.New("blt: pool is stopped")
	ErrNotCoupled  = errors.New("blt: operation requires coupled state")
	ErrHostDead    = errors.New("blt: original KC has already terminated")
)

// yieldTag is the protocol tag a UC attaches when yielding to its
// carrier.
type yieldTag int

const (
	// tagYield: cooperative ULT yield — requeue me and run another UC.
	tagYield yieldTag = iota
	// tagCoupling: I have requested coupling with my original KC; do
	// not requeue me (Table I, Seq.3: swap_ctx(UC0, UCi)).
	tagCoupling
	// tagSchedKill: my direct yield drew sched_kill for the scheduler
	// carrying me; I am requeued, so die and re-home me.
	tagSchedKill
)

func (g yieldTag) String() string {
	switch g {
	case tagYield:
		return "yield"
	case tagCoupling:
		return "coupling"
	case tagSchedKill:
		return "sched_kill"
	}
	return "?"
}

// Body is the user function a BLT executes. Its return value becomes the
// BLT's exit status.
type Body func(b *BLT) int

// BLT is one bi-level thread.
type BLT struct {
	pool *Pool
	name string

	uc   *uctx.Context
	host *KCHost // owns the original KC
	home *Scheduler

	tlsBase   uint64
	sigMask   uint64 // the UC's signal mask (ucontext-style switching)
	stackAddr uint64 // UC stack reservation in the shared space
	body      Body

	// coupled is true while the UC runs (or is about to run) as a KLT
	// on its original KC.
	coupled bool

	// ucSaved is the first synchronization point of Table I (between
	// Seq.3 on the scheduler and Seq.4 on the original KC): the
	// original KC must not load UC0 before the scheduler has saved it.
	ucSaved bool

	done     bool
	orphaned bool // exited decoupled because the original KC died

	// poll is the wake condition of a YieldUntil in flight while the UC
	// sits in its ready queue; the scheduler pass that dispatches the UC
	// runs it and clears it on a hit (Scheduler.yieldFrom).
	poll func(t *kernel.Task) bool

	// coupleErr, when set by the host's death path, is delivered to the
	// BLT the next time it resumes inside Couple: the coupling request
	// was bounced back to the home scheduler because the original KC is
	// gone.
	coupleErr error

	exitStatus int

	// bracket is the open couple→exec→decouple trace span on the
	// original KC's core (0 = none).
	bracket uint64

	// Stats.
	couples, decouples, yields uint64
}

// Name returns the BLT's diagnostic name.
func (b *BLT) Name() string { return b.name }

// KC returns the BLT's original kernel context.
func (b *BLT) KC() *kernel.Task { return b.host.task }

// Host returns the KC host (shared in M:N mode).
func (b *BLT) Host() *KCHost { return b.host }

// Coupled reports whether the BLT currently runs as a KLT.
func (b *BLT) Coupled() bool { return b.coupled }

// Done reports whether the BLT has terminated.
func (b *BLT) Done() bool { return b.done }

// ExitStatus returns the body's return value (valid once Done).
func (b *BLT) ExitStatus() int { return b.exitStatus }

// Orphaned reports whether the BLT terminated decoupled because its
// original KC died under fault injection. An orphaned BLT's status is
// visible here but not through wait(2) on its (dead) KC.
func (b *BLT) Orphaned() bool { return b.orphaned }

// Stack returns the UC stack reservation (address, size) in the shared
// address space.
func (b *BLT) Stack() (addr, size uint64) { return b.stackAddr, DefaultStackBytes }

// SigMask returns the UC's signal mask (used under SwitchSigmask).
func (b *BLT) SigMask() uint64 { return b.sigMask }

// SetSigMask records the UC's signal mask; under ucontext-style
// switching the mask follows the UC across carriers.
func (b *BLT) SetSigMask(mask uint64) { b.sigMask = mask }

// Stats reports how many couple/decouple/yield transitions the BLT made.
func (b *BLT) Stats() (couples, decouples, yields uint64) {
	return b.couples, b.decouples, b.yields
}

// Carrier returns the kernel task currently executing the BLT. Only
// valid from within the BLT's body.
func (b *BLT) Carrier() *kernel.Task { return b.uc.Carrier() }

// String implements fmt.Stringer.
func (b *BLT) String() string { return "blt:" + b.name }

// ucBody wraps the user body with the BLT lifecycle: always terminate
// as a KLT coupled with the original KC (paper rule 7). When the
// original KC died under fault injection, coupling is impossible; the UC
// then exits decoupled and the scheduler reaps it as an orphan.
func (b *BLT) ucBody(c *uctx.Context) {
	b.exitStatus = b.body(b)
	if !b.coupled {
		if err := b.Couple(); err != nil {
			b.orphaned = true
		}
	}
}

// Decouple detaches the calling BLT's UC from its original KC: the UC is
// enqueued on its home scheduler and the KC goes idle in its trampoline
// context. The call returns once a scheduler resumes the UC — from then
// on the BLT is a ULT. Calling Decouple while already decoupled is a
// no-op, mirroring the library.
//
// Under BUSYWAIT the trampoline's first pass runs here, on the UC's
// goroutine, as the KC's spin continuation; the UC then parks without
// waking another goroutine. Under BLOCKING the KC's own goroutine
// resumes to run the trampoline.
func (b *BLT) Decouple() {
	if !b.coupled {
		return
	}
	if b.uc.Carrier() != b.host.task {
		panic(fmt.Sprintf("blt: %s coupled but carried by %s, not its original KC %s",
			b, b.uc.Carrier(), b.host.task))
	}
	b.decouples++
	b.coupled = false
	b.ucSaved = false
	p := b.pool
	carrier := b.uc.Carrier()
	// The coupled bracket ends here: the KC is about to go idle.
	p.kern.EndSpan(carrier, b.name, b.bracket)
	b.bracket = 0
	fr := p.opEnter(carrier, b, "decouple", probe.PDecouple)
	if p.kern.Tracing() {
		p.kern.Trace("blt", "decouple: enqueue(%s, sched%d)", b.name, b.home.index) // Table I Seq.6
	}
	// Table I Seq.6: enqueue(UC0, KC1) — hand the UC to the scheduler.
	// The scheduler may observe the queue entry before the UC context
	// is saved; the second synchronization point (Seq.8/9) makes it
	// wait for ucSaved, which the trampoline publishes once the swap
	// below completes.
	b.home.enqueue(b, carrier)
	// Table I Seq.7: swap_ctx(UC0, TC0), straight to the trampoline.
	if p.kern.Tracing() {
		p.kern.Trace("blt", "decouple: swap_ctx(%s, TC)", b.name)
	}
	b.uc.Save()
	b.host.stage = tcSaved
	b.uc.Leave(carrier, b.host.step)
	// Resumed here by a scheduler KC: the BLT is now a ULT.
	p.opExit(b.uc.Carrier(), b, fr)
}

// Couple attaches the calling BLT's UC back to its original KC. On
// return, the code runs as a KLT on the original KC, so system-calls hit
// the right kernel state. Calling Couple while already coupled is a
// no-op.
//
// When the original KC has terminated (possible only under fault
// injection), Couple returns ErrHostDead and the BLT stays decoupled —
// the kernel context that owned its PID and FD table no longer exists,
// so there is nothing to couple to. Transient wakeup loss on the KC's
// idle futex is survived transparently: the host's idle slot re-arms
// with a bounded exponential-backoff timeout whenever lost wakes are a
// possibility, so a dropped FUTEX_WAKE delays the couple but never hangs
// it.
func (b *BLT) Couple() error {
	if b.coupled {
		return nil
	}
	if b.host.dead && !b.host.canRespawn() {
		return ErrHostDead
	}
	carrier := b.uc.Carrier() // the scheduler KC (Table I: KC1)
	if carrier == b.host.task {
		panic(fmt.Sprintf("blt: decoupled %s carried by its own original KC", b))
	}
	b.couples++
	b.coupled = true
	b.ucSaved = false
	p := b.pool
	fr := p.opEnter(carrier, b, "couple", probe.PCouple)
	// Table I Seq.1: enqueue(UC0, KC0) — ask the original KC to run us.
	// Seq.2: unblock(KC0).
	if p.kern.Tracing() {
		p.kern.Trace("blt", "couple: enqueue(%s, KC) + unblock(KC)", b.name)
	}
	b.host.enqueueCoupled(b, carrier)
	// Seq.3: swap_ctx(UC0, UCi) — yield to the scheduler, which marks
	// the context saved (sync point 1) and runs another UC. This switch
	// goes through the scheduler's goroutine: the original KC may load
	// the UC as soon as the save is published.
	if p.kern.Tracing() {
		p.kern.Trace("blt", "couple: swap_ctx(%s, next-UC)", b.name)
	}
	b.uc.Yield(tagCoupling)
	// Resumed here either by the original KC (Seq.4: swap_ctx(TC0, UC0))
	// or — if the KC died with our request still queued — by the home
	// scheduler, with coupleErr set.
	p.opExit(b.uc.Carrier(), b, fr)
	if b.coupleErr != nil {
		err := b.coupleErr
		b.coupleErr = nil
		return err
	}
	if got := b.uc.Carrier(); got != b.host.task {
		panic(fmt.Sprintf("blt: %s coupled onto %s, want original KC %s", b, got, b.host.task))
	}
	return nil
}

// Yield is the ULT cooperative yield: requeue this UC on its home
// scheduler and run the next ready UC. While coupled it degenerates to
// the kernel's sched_yield, as a KLT's yield would.
//
// The scheduler work runs on this UC's goroutine, which then transfers
// straight to the next UC (Scheduler.yieldFrom). Under work stealing
// the yield goes through the scheduler's goroutine instead: a thief
// could step this UC as soon as it is requeued, while its goroutine
// still runs scheduler code.
func (b *BLT) Yield() {
	b.yields++
	if b.coupled {
		b.uc.Carrier().SchedYield()
		return
	}
	if b.pool.cfg.WorkStealing {
		b.uc.Yield(tagYield)
		return
	}
	b.home.yieldFrom(b)
}

// YieldUntil yields until poll reports true; it means exactly
//
//	for !poll(b.Carrier()) {
//		b.Yield()
//	}
//
// While the BLT waits decoupled in a pool without work stealing, its
// poll stays pending on the BLT, and the scheduler pass that dispatches
// the UC runs it (Scheduler.yieldFrom), on the goroutine of the UC whose
// yield began the pass. A miss there is this BLT's yield, done in place,
// so the UC's context is resumed once per satisfied wait instead of once
// per poll. Coupled BLTs, work-stealing pools and UCs the scheduler loop
// resumes with Step poll on their own goroutine.
//
// The poll contract: poll runs on the carrier it is handed, which is
// not necessarily the caller's goroutine. It may Charge that carrier
// and read or take shared state; it must not yield, couple or exec
// (the UC's Save and Carrier checks panic on that misuse).
func (b *BLT) YieldUntil(poll func(t *kernel.Task) bool) {
	for !poll(b.uc.Carrier()) {
		b.poll = poll
		b.Yield()
		if b.poll == nil {
			return // a scheduler pass ran the poll, and it hit
		}
		b.poll = nil // resumed with the poll still pending: poll here
	}
}

// Exec runs fn coupled to the original KC: the couple()/decouple()
// bracket the paper recommends around any blocking system-call or series
// of system-calls. If the BLT is already coupled, fn simply runs.
//
// When coupling is impossible because the original KC died, fn does NOT
// run — running it on a scheduler KC would violate system-call
// consistency — and Exec returns ErrNotCoupled (wrapping ErrHostDead).
func (b *BLT) Exec(fn func(kc *kernel.Task)) error {
	wasCoupled := b.coupled
	if !wasCoupled {
		if err := b.Couple(); err != nil {
			return fmt.Errorf("%w: %w", ErrNotCoupled, err)
		}
	}
	fn(b.uc.Carrier())
	if !wasCoupled {
		b.Decouple()
	}
	return nil
}
