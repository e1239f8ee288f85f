package sim

import (
	"testing"
	"testing/quick"
)

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

func TestWaitQWakeNNeverOverWakes(t *testing.T) {
	// Property: WakeN(n) wakes exactly min(n, len) waiters.
	f := func(nWaiters uint8, nWake uint8) bool {
		w := int(nWaiters % 20)
		k := int(nWake % 25)
		e := New()
		var q WaitQ
		woken := 0
		for i := 0; i < w; i++ {
			e.Spawn("w", func(p *Proc) {
				q.Wait(p)
				woken++
			})
		}
		ok := true
		e.Spawn("waker", func(p *Proc) {
			p.Advance(Nanosecond)
			got := q.WakeN(k, 0)
			want := k
			if w < k {
				want = w
			}
			if got != want {
				ok = false
			}
		})
		_ = e.Run() // may report deadlock when not all waiters are woken
		e.Shutdown()
		min := k
		if w < min {
			min = w
		}
		return ok && woken == min
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestWaitQRemove(t *testing.T) {
	e := New()
	var q WaitQ
	var removed *Proc
	ran := false
	removed = e.Spawn("victim", func(p *Proc) {
		q.Wait(p)
		ran = true
	})
	e.Spawn("driver", func(p *Proc) {
		p.Advance(Nanosecond)
		if !q.Remove(removed) {
			t.Error("Remove reported not found")
		}
		if q.Remove(removed) {
			t.Error("second Remove reported found")
		}
		if q.WakeOne(0) {
			t.Error("WakeOne woke someone from an empty queue")
		}
	})
	_ = e.Run()
	e.Shutdown()
	if ran {
		t.Error("removed waiter still ran")
	}
}

// retainsProc reports whether the queue (or the proc's own link fields)
// still references p — the retention leak the Remove fix closed on the
// old slice representation, and which the intrusive representation must
// not reintroduce: unlinking clears wq/wqPrev/wqNext and no surviving
// node may point at the departed proc.
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

// TestWaitQRemoveDoesNotRetainProc pins the Remove retention fix: a
// removed waiter must leave no reference behind, at any queue position.
func TestWaitQRemoveDoesNotRetainProc(t *testing.T) {
	a, b, c := &Proc{}, &Proc{}, &Proc{}
	var q WaitQ
	for _, p := range []*Proc{a, b, c} {
		q.enqueue(p)
	}
	if !q.Remove(c) {
		t.Fatal("Remove(tail) reported not found")
	}
	if retainsProc(&q, c) {
		t.Error("queue retains removed tail waiter")
	}
	if !q.Remove(a) {
		t.Fatal("Remove(head) reported not found")
	}
	if retainsProc(&q, a) {
		t.Error("queue retains removed head waiter")
	}
	if q.Len() != 1 || q.head != b {
		t.Error("surviving waiter lost or reordered")
	}
}

func TestWaitQWakeAll(t *testing.T) {
	e := New()
	var q WaitQ
	count := 0
	for i := 0; i < 5; i++ {
		e.Spawn("w", func(p *Proc) {
			q.Wait(p)
			count++
		})
	}
	e.Spawn("waker", func(p *Proc) {
		p.Advance(Nanosecond)
		if n := q.WakeAll(0); n != 5 {
			t.Errorf("WakeAll = %d, want 5", n)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if count != 5 {
		t.Errorf("count = %d, want 5", count)
	}
}
