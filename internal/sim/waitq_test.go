package sim

import "testing"

func TestWaitQFIFO(t *testing.T) {
	e := New()
	var q WaitQ
	var order []string
	for _, name := range []string{"w1", "w2", "w3"} {
		name := name
		e.Spawn(name, func(p *Proc) {
			q.Wait(p)
			order = append(order, name)
		})
	}
	e.Spawn("waker", func(p *Proc) {
		p.Advance(10 * Nanosecond)
		for q.WakeOne(0) {
			p.Advance(Nanosecond)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []string{"w1", "w2", "w3"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("wake order %v, want %v", order, want)
		}
	}
}

// retainsProc reports whether the queue (or the proc's own link fields)
// still references p — the retention leak an unlink on the old slice
// representation had, and which the intrusive representation must not
// reintroduce: unlinking clears wq/wqPrev/wqNext and no surviving node
// may point at the departed proc.
func retainsProc(q *WaitQ, p *Proc) bool {
	if p.wq != nil || p.wqPrev != nil || p.wqNext != nil {
		return true
	}
	for w := q.head; w != nil; w = w.wqNext {
		if w == p || w.wqPrev == p || w.wqNext == p {
			return true
		}
	}
	return false
}

// TestWaitQUnlinkDoesNotRetainProc: the unlink WakeOne takes a waiter
// off the queue with must leave no reference behind, at the tail or at
// the head, and a drained queue wakes nobody.
func TestWaitQUnlinkDoesNotRetainProc(t *testing.T) {
	a, b, c := &Proc{}, &Proc{}, &Proc{}
	var q WaitQ
	for _, p := range []*Proc{a, b, c} {
		q.enqueue(p)
	}
	q.unlink(c)
	if retainsProc(&q, c) {
		t.Error("queue retains unlinked tail waiter")
	}
	q.unlink(a)
	if retainsProc(&q, a) {
		t.Error("queue retains unlinked head waiter")
	}
	if q.Len() != 1 || q.head != b {
		t.Error("surviving waiter lost or reordered")
	}
	q.unlink(b)
	if q.Len() != 0 || q.WakeOne(0) {
		t.Error("WakeOne woke someone from a drained queue")
	}
}
