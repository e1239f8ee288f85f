package sync

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/sim"
)

// Bounds of the mutex's lost-wake recovery sleep (kernel.FutexSleep);
// the condvar sleeps a fixed lostWakeMax.
const (
	lostWakeBase = 20 * sim.Microsecond
	lostWakeMax  = 2 * sim.Millisecond
)

// Mutex is the futex-backed adaptive mutex (the glibc style): an
// atomic fast path, a bounded TTAS spin for the adaptive phase, then a
// kernel sleep on the lock word. Word states: 0 free, 1 held, 2 held
// with possible sleepers — unlock wakes one sleeper only from state 2,
// and every contended acquisition re-marks the word 2 so a sleeper
// chain drains one wake per unlock.
type Mutex struct {
	lockBase
	word64 uint64
}

func newMutex(b lockBase) (Lock, error) {
	l := &Mutex{lockBase: b}
	var err error
	if l.word64, err = b.word("word"); err != nil {
		return nil, err
	}
	return l, nil
}

// NewMutex builds the adaptive mutex directly (Cond needs the concrete
// type; New("futex") returns the same implementation as a Lock).
func NewMutex(creator *kernel.Task, _ Config) (*Mutex, error) {
	b, err := newBase(creator, "futex")
	if err != nil {
		return nil, err
	}
	l, err := newMutex(b)
	if err != nil {
		return nil, err
	}
	return l.(*Mutex), nil
}

func (l *Mutex) Lock(t *kernel.Task) {
	start := l.now()
	l.noteArrive(t)
	if l.cas(t, l.word64, 0, 1) {
		l.noteAcquire(t, start, false)
		return
	}
	// Adaptive phase: poll, then try cas(0→1), up to DefaultSpins times,
	// hoping the holder is mid-critical-section on another core; then
	// give up and sleep.
	if l.spin(t, tryCAS, l.word64, 1, 0) < DefaultSpins {
		l.noteAcquire(t, start, true)
		return
	}
	b := kernel.Backoff{Base: lostWakeBase, Max: lostWakeMax}
	for {
		// Announce (possible) sleepers: acquire only by swapping in 2, so
		// our own unlock passes the wake on to the next sleeper.
		if l.swap(t, l.word64, 2) == 0 {
			l.noteAcquire(t, start, true)
			return
		}
		l.futexSleep(t, &b)
	}
}

// futexSleep parks on the lock word while it reads "contended", in the
// kernel's lost-wake recovery sleep. The caller re-runs the swap loop
// after every return, which is correct under spurious wakes, EINTR,
// timeouts and lost-wake recovery alike.
func (l *Mutex) futexSleep(t *kernel.Task, b *kernel.Backoff) {
	if err := t.FutexSleep(l.word64, 2, b); err != nil {
		panic(fmt.Sprintf("sync: futex mutex sleep: %v", err))
	}
}

// lockContended acquires the mutex only through the announced-sleepers
// state: swap in 2, park while held. A waiter woken (or requeued) off a
// condvar MUST reacquire this way — a fast-path cas(0→1) would leave
// the word in state 1, and that unlock would never pass the wake on to
// the other sleepers still parked on the mutex word.
func (l *Mutex) lockContended(t *kernel.Task) {
	start := l.now()
	l.noteArrive(t)
	b := kernel.Backoff{Base: lostWakeBase, Max: lostWakeMax}
	for l.swap(t, l.word64, 2) != 0 {
		l.futexSleep(t, &b)
	}
	l.noteAcquire(t, start, true)
}

func (l *Mutex) Unlock(t *kernel.Task) {
	switch l.swap(t, l.word64, 0) {
	case 1:
		// No sleepers announced: nothing to wake.
	case 2:
		t.FutexWake(l.word64, 1)
	default:
		panic("sync: unlock of unlocked futex mutex")
	}
}

// Cond is a condition variable over an adaptive Mutex, with the
// classic futex sequence-word protocol: Wait snapshots the sequence
// under the mutex and sleeps while it is unchanged; Signal bumps it and
// wakes one waiter; Broadcast bumps it, wakes ONE waiter and transfers
// the rest onto the mutex word via FUTEX_CMP_REQUEUE — they wake one
// per unlock as the mutex hands off, instead of stampeding for it all
// at once.
type Cond struct {
	m   *Mutex
	seq uint64
}

// NewCond builds a condition variable bound to m (Wait/Broadcast must
// be called with m held).
func NewCond(creator *kernel.Task, m *Mutex) (*Cond, error) {
	seq, err := m.word("condseq")
	if err != nil {
		return nil, err
	}
	return &Cond{m: m, seq: seq}, nil
}

// Wait atomically releases the mutex and sleeps until a Signal or
// Broadcast (or a spurious wake — callers must re-check their predicate
// in a loop, as with POSIX condvars), then reacquires the mutex.
func (c *Cond) Wait(t *kernel.Task) {
	l := c.m
	t.Charge(l.costs.AtomicOp)
	v := l.load(c.seq)
	l.Unlock(t)
	// The wake (or the requeue's eventual mutex wake) may be eaten, so
	// the sleep is a recovery sleep. Its timer survives a requeue by
	// design, so even a sleeper moved to the mutex word times out.
	b := kernel.Backoff{Base: lostWakeMax, Max: lostWakeMax}
	if err := t.FutexSleep(c.seq, v, &b); err != nil {
		panic(fmt.Sprintf("sync: cond wait: %v", err))
	}
	l.lockContended(t)
}

// Signal wakes one waiter. May be called with or without the mutex.
func (c *Cond) Signal(t *kernel.Task) {
	c.m.fetchAdd(t, c.seq, 1)
	t.FutexWake(c.seq, 1)
}

// Broadcast wakes every waiter, requeueing all but one onto the mutex
// word. Must be called with the mutex held: the requeue marks the word
// contended (state 2) so each subsequent unlock wakes exactly one moved
// sleeper — the herd serializes through the mutex handoff rather than
// thundering.
func (c *Cond) Broadcast(t *kernel.Task) {
	l := c.m
	l.fetchAdd(t, c.seq, 1)
	t.Charge(l.costs.AtomicOp)
	nv := l.load(c.seq)
	// Holder-owned store: sleepers are about to appear on the mutex
	// word, and only an unlock that observes 2 passes the wake on.
	l.storeRaw(l.word64, 2)
	if _, err := t.FutexRequeue(c.seq, nv, 1, 1<<30, l.word64); err != nil {
		// A racing Signal bumped the sequence between our add and the
		// requeue's recheck: every waiter is already waking; make sure
		// none is left behind.
		t.FutexWake(c.seq, 1<<30)
	}
}
