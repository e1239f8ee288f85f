package sim

import (
	"errors"
	"sort"
	"testing"
	"unsafe"
)

// TestHeapPopNilsTail pins the representation detail that heapPop clears
// the vacated tail slot before truncating the slice. Without the nil
// store the backing array retains a pointer to every popped event until
// the slice is next overwritten — the retention class WaitQueue.remove
// once had, here for the event heap.
func TestHeapPopNilsTail(t *testing.T) {
	e := New()
	for i := 0; i < 9; i++ {
		e.heapPush(&event{at: Time(i), seq: uint64(i)})
	}
	for n := len(e.heap); n > 0; n-- {
		if ev := e.heapPop(); ev == nil {
			t.Fatal("heapPop returned nil with events pending")
		}
		// The slot just vacated sits at the new length; re-extend the
		// slice to inspect it.
		if got := e.heap[:n][n-1]; got != nil {
			t.Fatalf("heapPop left event %v in the vacated tail slot", got)
		}
	}
}

// TestEventSizePin and TestEngineSizePin keep the event queue's hot
// state small: an event is four words, and no large array sits among
// the Engine's fields, between the heap and the deferred slot that every
// schedule and pop touch.
func TestEventSizePin(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got > 32 {
		t.Errorf("unsafe.Sizeof(event{}) = %d, want <= 32", got)
	}
}

func TestEngineSizePin(t *testing.T) {
	if got := unsafe.Sizeof(Engine{}); got > 256 {
		t.Errorf("unsafe.Sizeof(Engine{}) = %d, want <= 256", got)
	}
}

// fuzzInput hands out the fuzzer's bytes one at a time, then zeros.
type fuzzInput []byte

func (in *fuzzInput) next() byte {
	if len(*in) == 0 {
		return 0
	}
	b := (*in)[0]
	*in = (*in)[1:]
	return b
}

// delay decodes a delay from picoseconds to seconds; two of its classes
// make many delays equal, so events collide on one instant.
func (in *fuzzInput) delay() Duration {
	class, v := in.next(), Duration(in.next())
	switch class % 6 {
	case 0:
		return v * Picosecond
	case 1:
		return v * 37 * Nanosecond
	case 2:
		return v * 211 * Microsecond
	case 3:
		return v * 13 * Millisecond
	case 4:
		return v % 8 * 10 * Microsecond
	}
	return 0
}

// orderRun is one FuzzEventOrder workload. Every schedule — an After, a
// proc's Advance or first resume, an Unpark — gets the next schedule
// number and its due time; fire logs the instant the event runs.
type orderRun struct {
	e      *Engine
	in     fuzzInput
	budget int // schedules the input may still ask for
	due    []Time
	log    []orderRec
	parked []*orderWaiter
}

type orderRec struct {
	seq int
	at  Time
}

// orderWaiter is a parked proc and, once unparked, its wake's number.
type orderWaiter struct {
	p   *Proc
	seq int
}

func (r *orderRun) note(d Duration) int {
	r.budget--
	r.due = append(r.due, r.e.Now().Add(d))
	return len(r.due) - 1
}

func (r *orderRun) fire(seq int) { r.log = append(r.log, orderRec{seq, r.e.Now()}) }

// after schedules a callback that, as the input dictates, schedules more
// callbacks, a same-delay pair, or the wake of the longest-parked proc.
func (r *orderRun) after(d Duration) {
	seq := r.note(d)
	r.e.After(d, func() {
		r.fire(seq)
		if r.budget <= 0 {
			return
		}
		switch r.in.next() % 4 {
		case 0:
			for k := r.in.next() % 3; k > 0; k-- {
				r.after(r.in.delay())
			}
		case 1:
			d := r.in.delay()
			r.after(d)
			r.after(d)
		case 2:
			if len(r.parked) > 0 {
				r.unpark(r.in.delay())
			}
		}
	})
}

func (r *orderRun) unpark(d Duration) {
	w := r.parked[0]
	r.parked = r.parked[1:]
	w.seq = r.note(d)
	w.p.Unpark(d)
}

// body is a proc that advances (the fast path when nothing else is due
// by then), schedules callbacks and parks until the input runs out.
func (r *orderRun) body(seq int) func(*Proc) {
	return func(p *Proc) {
		r.fire(seq)
		for r.budget > 0 && len(r.in) > 0 {
			switch r.in.next() % 4 {
			case 0, 1:
				d := r.in.delay()
				seq := r.note(d)
				p.Advance(d)
				r.fire(seq)
			case 2:
				r.after(r.in.delay())
			case 3:
				w := &orderWaiter{p: p}
				r.parked = append(r.parked, w)
				p.Park()
				r.fire(w.seq)
			}
		}
	}
}

// FuzzEventOrder drives self-extending workloads of callbacks and procs
// through the engine and checks the event queue against a plain sort:
// every event fires at its due time, and events fire in (due time,
// schedule order), FIFO among equal instants.
func FuzzEventOrder(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &orderRun{e: New(), in: fuzzInput(data), budget: 1024}
		procs := int(r.in.next() % 4)
		for i := 0; i < procs; i++ {
			d := r.in.delay()
			spawnAfter(r.e, "p", d, r.body(r.note(d)))
		}
		for k := 1 + r.in.next()%8; k > 0; k-- {
			r.after(r.in.delay())
		}
		for {
			err := r.e.Run()
			if err == nil {
				break
			}
			if !errors.Is(err, ErrDeadlock) || len(r.parked) == 0 {
				r.e.Shutdown()
				t.Fatal(err)
			}
			r.unpark(r.in.delay())
		}
		if n, live := r.e.PendingEvents(), r.e.LiveProcs(); n != 0 || live != 0 {
			t.Fatalf("%d events and %d procs left after Run", n, live)
		}
		want := make([]int, len(r.due))
		for i := range want {
			want[i] = i
		}
		sort.SliceStable(want, func(i, j int) bool { return r.due[want[i]] < r.due[want[j]] })
		if len(r.log) != len(want) {
			t.Fatalf("%d events fired, %d scheduled", len(r.log), len(want))
		}
		for i, rec := range r.log {
			if rec.at != r.due[rec.seq] {
				t.Fatalf("event %d fired at %v, due at %v", rec.seq, rec.at, r.due[rec.seq])
			}
			if rec.seq != want[i] {
				t.Fatalf("firing %d is event %d (due %v), a sort by (due, schedule order) puts event %d (due %v) there",
					i, rec.seq, rec.at, want[i], r.due[want[i]])
			}
		}
	})
}
