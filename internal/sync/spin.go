package sync

import "repro/internal/kernel"

// tasLock is the test-and-set spin lock: every acquisition attempt is
// an atomic swap on the single lock word (0 free, 1 held). Maximal
// coherence traffic under contention, no fairness — the baseline of the
// lock-algorithm matrix.
type tasLock struct {
	lockBase
	word64 uint64
}

func newTAS(b lockBase) (Lock, error) {
	l := &tasLock{lockBase: b}
	var err error
	if l.word64, err = b.word("word"); err != nil {
		return nil, err
	}
	return l, nil
}

func (l *tasLock) Lock(t *kernel.Task) {
	start := l.now()
	l.noteArrive(t)
	if l.swap(t, l.word64, 1) == 0 {
		l.noteAcquire(t, start, false)
		return
	}
	l.spin(t, swapIn, l.word64, 1, 0)
	l.noteAcquire(t, start, true)
}

func (l *tasLock) Unlock(t *kernel.Task) {
	l.store(t, l.word64, 0)
}

// ttasLock is test-and-test-and-set: spin on plain polls of the word
// and attempt the atomic swap only after observing it free, keeping the
// word shared (not exclusive) in every spinner's cache between
// handoffs.
type ttasLock struct {
	lockBase
	word64 uint64
}

func newTTAS(b lockBase) (Lock, error) {
	l := &ttasLock{lockBase: b}
	var err error
	if l.word64, err = b.word("word"); err != nil {
		return nil, err
	}
	return l, nil
}

func (l *ttasLock) Lock(t *kernel.Task) {
	start := l.now()
	l.noteArrive(t)
	// The spin count runs on across failed swaps, so the spinner yields
	// on every DefaultSpins-th failed poll of the whole acquisition.
	spins, swapFailed := 0, false
	for {
		spins = l.spin(t, untilEq, l.word64, 0, spins)
		if l.swap(t, l.word64, 1) == 0 {
			l.noteAcquire(t, start, spins > 0 || swapFailed)
			return
		}
		swapFailed = true
	}
}

func (l *ttasLock) Unlock(t *kernel.Task) {
	l.store(t, l.word64, 0)
}

// ticketLock is the FIFO ticket lock: a fetch-and-add draws a ticket
// from next, and the holder's unlock advances serving — handoff order
// is exactly ticket order, the first of the lab's fairness-pinned
// algorithms.
type ticketLock struct {
	lockBase
	next    uint64
	serving uint64
}

func newTicket(b lockBase) (Lock, error) {
	l := &ticketLock{lockBase: b}
	var err error
	if l.next, err = b.word("next"); err != nil {
		return nil, err
	}
	if l.serving, err = b.word("serving"); err != nil {
		return nil, err
	}
	return l, nil
}

func (l *ticketLock) Lock(t *kernel.Task) {
	start := l.now()
	my := l.fetchAdd(t, l.next, 1)
	// The ticket draw is the queueing point: handoff order is decided
	// here, so the fairness recorder sees arrivals in ticket order.
	l.noteArrive(t)
	if l.load(l.serving) == my {
		l.noteAcquire(t, start, false)
		return
	}
	l.spin(t, untilEq, l.serving, my, 0)
	l.noteAcquire(t, start, true)
}

func (l *ticketLock) Unlock(t *kernel.Task) {
	// Only the holder stores serving, so a charged plain store suffices.
	l.store(t, l.serving, l.load(l.serving)+1)
}
