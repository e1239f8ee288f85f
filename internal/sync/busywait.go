package sync

import "repro/internal/kernel"

// spinMode is what a busy-wait waits for.
type spinMode uint8

const (
	untilEq spinMode = iota // poll until the word reads target
	untilNe                 // poll until the word stops reading target
	swapIn                  // swap in target until the old value is 0 (TAS)
	tryCAS                  // poll, then cas(0→target); give up after DefaultSpins
)

// spinPhase is where the next pass of a busy-wait starts.
type spinPhase uint8

const (
	spinCharge spinPhase = iota // charge the next poll (TAS: its swap)
	spinRead                    // the charge has elapsed: read the word
	spinCAS                     // the cas's charge has elapsed: try it
	spinYield                   // in the sched_yield of every DefaultSpins-th miss
)

// spinSlot is one busy-wait in flight: a task polling a lock word, run
// as the task's spin continuation (kernel.Task.Spin), so that a poll
// costs no goroutine handoff. Its step is bound once, when the slot is
// allocated, and idle slots wait on their lock's free list: a
// contended acquisition allocates nothing.
type spinSlot struct {
	b      *lockBase
	t      *kernel.Task
	addr   uint64
	target uint64
	mode   spinMode
	phase  spinPhase
	count  int // failed polls (TAS: failed swaps)
	yield  kernel.Spinner
	step   func() bool
	next   *spinSlot // free-list link
}

// spin busy-waits t on the word at addr per mode, as t's spin
// continuation, and returns the count of failed polls, carried on from
// count. A spin takes a slot off the lock's free list and puts it back
// when the wait ends, so a lock allocates only as many slots as it has
// tasks spinning at once; a task killed mid-spin leaves its slot to the
// GC.
func (b *lockBase) spin(t *kernel.Task, mode spinMode, addr, target uint64, count int) int {
	s := b.free
	if s == nil {
		s = &spinSlot{b: b}
		s.step = s.pass
	} else {
		b.free = s.next
	}
	s.t, s.mode, s.addr, s.target, s.count, s.phase = t, mode, addr, target, count, spinCharge
	t.Spin(s.step)
	count = s.count
	s.t, s.next, b.free = nil, b.free, s
	return count
}

// pass is one pass of the busy-wait: it ends in exactly one Charge or
// one stage of a sched_yield, or reports the wait over. The word
// is read at the start of the pass after its charge, at the instant a
// blocking poll would read it once its Charge returned, so every event
// keeps its time and sequence number.
func (s *spinSlot) pass() bool {
	b, t := s.b, s.t
	for {
		switch s.phase {
		case spinCharge:
			s.phase = spinRead
			if s.mode == swapIn {
				t.Charge(b.costs.AtomicOp)
			} else {
				// The busy-waiting core pays SpinNotice to observe a
				// flag another core may have just stored.
				t.Charge(b.costs.SpinNotice)
			}
			return false
		case spinRead:
			v := b.load(s.addr)
			switch s.mode {
			case untilEq:
				if v == s.target {
					return true
				}
			case untilNe:
				if v != s.target {
					return true
				}
			case swapIn:
				b.storeRaw(s.addr, s.target)
				if v == 0 {
					return true
				}
			case tryCAS:
				if v == 0 {
					s.phase = spinCAS
					t.Charge(b.costs.AtomicOp)
					return false
				}
			}
			if s.miss() {
				return true
			}
		case spinCAS:
			if b.load(s.addr) == 0 {
				b.storeRaw(s.addr, s.target)
				return true
			}
			if s.miss() {
				return true
			}
		default: // spinYield
			if !s.yield.SchedYield(t) {
				return false
			}
			s.phase = spinCharge
		}
	}
}

// miss ends one failed poll: after every DefaultSpins of them the
// spinner yields the core so a descheduled holder (or queue
// predecessor) can run — mandatory under oversubscription on a
// non-preemptive kernel. The adaptive mutex's bounded phase never
// yields: it reports the wait over after DefaultSpins misses.
func (s *spinSlot) miss() (over bool) {
	s.count++
	switch {
	case s.mode == tryCAS:
		s.phase = spinCharge
		return s.count == DefaultSpins
	case s.count%DefaultSpins == 0:
		s.phase = spinYield
	default:
		s.phase = spinCharge
	}
	return false
}
