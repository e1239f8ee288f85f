package sim

// WaitQ is a FIFO queue of parked procs — the building block for futexes,
// semaphores and condition variables in the simulated kernel. Wakeups are
// FIFO and deterministic.
//
// Like the engine's resume events, the queue is intrusive: the links are
// embedded in the procs themselves (Proc.wqPrev/wqNext), so push and pop
// are O(1), waiting allocates nothing, and unlinking clears the proc's
// link fields so a departed waiter is never retained. A proc can wait on
// at most one queue at a time (Wait parks the caller), which is what
// makes the embedded links sound.
type WaitQ struct {
	head, tail *Proc
	n          int
}

// Len reports the number of waiting procs.
func (q *WaitQ) Len() int { return q.n }

// Wait parks the calling proc on the queue until woken.
func (q *WaitQ) Wait(p *Proc) {
	q.enqueue(p)
	p.Park()
}

// enqueue appends p, which must not currently be on any queue.
func (q *WaitQ) enqueue(p *Proc) {
	if p.wq != nil {
		panic("sim: proc " + p.Name() + " waiting on a WaitQ while on another")
	}
	p.wq = q
	p.wqPrev = q.tail
	if q.tail != nil {
		q.tail.wqNext = p
	} else {
		q.head = p
	}
	q.tail = p
	q.n++
}

// unlink removes p, which must be on q, clearing its link fields.
func (q *WaitQ) unlink(p *Proc) {
	if p.wqPrev != nil {
		p.wqPrev.wqNext = p.wqNext
	} else {
		q.head = p.wqNext
	}
	if p.wqNext != nil {
		p.wqNext.wqPrev = p.wqPrev
	} else {
		q.tail = p.wqPrev
	}
	p.wq, p.wqPrev, p.wqNext = nil, nil, nil
	q.n--
}

// WakeOne unparks the oldest waiter after delay d and reports whether a
// waiter existed.
func (q *WaitQ) WakeOne(d Duration) bool {
	p := q.head
	if p == nil {
		return false
	}
	q.unlink(p)
	p.Unpark(d)
	return true
}
