package sync

import "repro/internal/kernel"

// qnodes hands out one lock-private queue node per contending task,
// allocated in the shared space on first use (never on a later
// acquisition path). Keyed by PID; only ever looked up, never iterated,
// so determinism is unaffected.
type qnodes struct {
	addrs map[int]uint64
	size  uint64
	tag   string
}

func (q *qnodes) node(b *lockBase, t *kernel.Task) uint64 {
	if n, ok := q.addrs[t.PID()]; ok {
		return n
	}
	n, err := b.space.Mmap(q.size, lockProt, "lock."+b.name+"."+q.tag, true, nil)
	if err != nil {
		panic("sync: " + b.name + ": qnode alloc: " + err.Error())
	}
	q.addrs[t.PID()] = n
	return n
}

// mcsLock is the MCS queue lock: waiters swap themselves onto the tail
// and each spins on a flag in its *own* node, which its predecessor
// clears at handoff — one cache line of spinning per waiter, strict
// FIFO in tail-swap order. Node layout: [+0] locked flag, [+8] next
// pointer (a node address, 0 for none).
type mcsLock struct {
	lockBase
	tail  uint64
	nodes qnodes
}

func newMCS(b lockBase) (Lock, error) {
	l := &mcsLock{
		lockBase: b,
		nodes:    qnodes{addrs: make(map[int]uint64), size: 16, tag: "qnode"},
	}
	var err error
	if l.tail, err = b.word("tail"); err != nil {
		return nil, err
	}
	return l, nil
}

func (l *mcsLock) Lock(t *kernel.Task) {
	start := l.now()
	n := l.nodes.node(&l.lockBase, t)
	// Private init before the node is published by the tail swap.
	l.storeRaw(n+8, 0)
	l.storeRaw(n, 1)
	pred := l.swap(t, l.tail, n)
	// The tail swap is the queueing point: handoff is strictly in swap
	// order.
	l.noteArrive(t)
	if pred == 0 {
		l.noteAcquire(t, start, false)
		return
	}
	l.store(t, pred+8, n) // publish ourselves to the predecessor
	l.spin(t, untilEq, n, 0, 0)
	l.noteAcquire(t, start, true)
}

func (l *mcsLock) Unlock(t *kernel.Task) {
	n := l.nodes.node(&l.lockBase, t)
	t.Charge(l.costs.AtomicOp)
	if l.load(n+8) == 0 {
		// No announced successor: try to close the queue; if the CAS
		// fails a new waiter holds the tail and is about to publish
		// itself — wait for the link.
		if l.cas(t, l.tail, n, 0) {
			return
		}
		l.spin(t, untilNe, n+8, 0, 0)
	}
	l.store(t, l.load(n+8), 0) // clear the successor's spin flag
}

// clhLock is the CLH queue lock: an implicit queue where each waiter
// spins on its *predecessor's* node (locked until that task's unlock),
// strict FIFO in tail-swap order. Unlock recycles the predecessor's
// node as the caller's next node — the caller's own node may still be
// watched by its successor.
type clhLock struct {
	lockBase
	tail  uint64
	nodes qnodes
	preds map[int]uint64
}

func newCLH(b lockBase) (Lock, error) {
	l := &clhLock{
		lockBase: b,
		nodes:    qnodes{addrs: make(map[int]uint64), size: 8, tag: "clhnode"},
		preds:    make(map[int]uint64),
	}
	var err error
	if l.tail, err = b.word("tail"); err != nil {
		return nil, err
	}
	// The queue starts with a dummy unlocked node as the tail, so every
	// locker has a predecessor to spin on.
	dummy, err := b.word("dummy")
	if err != nil {
		return nil, err
	}
	l.storeRaw(l.tail, dummy)
	return l, nil
}

func (l *clhLock) Lock(t *kernel.Task) {
	start := l.now()
	n := l.nodes.node(&l.lockBase, t)
	l.storeRaw(n, 1) // private init before the tail swap publishes it
	pred := l.swap(t, l.tail, n)
	l.noteArrive(t)
	l.preds[t.PID()] = pred
	if l.load(pred) == 0 {
		l.noteAcquire(t, start, false)
		return
	}
	l.spin(t, untilEq, pred, 0, 0)
	l.noteAcquire(t, start, true)
}

func (l *clhLock) Unlock(t *kernel.Task) {
	pid := t.PID()
	l.store(t, l.nodes.addrs[pid], 0)
	// Take the predecessor's retired node as ours; our old node stays
	// live for the successor spinning on it.
	l.nodes.addrs[pid] = l.preds[pid]
}
