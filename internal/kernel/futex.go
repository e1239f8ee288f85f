package kernel

import (
	"fmt"

	"repro/internal/probe"
	"repro/internal/sim"
)

// futexKey identifies one futex word: an address within an address
// space. Tasks sharing a space (PiP, threads) share futexes on the same
// address — exactly the Linux behaviour the paper's BLOCKING idle policy
// ("the Linux semaphore, implemented by using futex") relies on.
type futexKey struct {
	space uint64
	addr  uint64
}

// futexTable maps futex words to their wait queues. Entries exist only
// while at least one task sleeps on the word: the queue's unlink drops
// the entry when the last waiter leaves (wake, timeout or interrupt), so
// a long-lived machine does not leak one table entry per futex word ever
// touched.
type futexTable struct {
	k      *Kernel
	queues map[futexKey]*WaitQueue

	// free recycles drained queues (at most maxFreeQueues), so a word's
	// first sleeper allocates nothing in steady state. Only queue hands
	// one out, and no wake or requeue loop reads its queue after that
	// queue could have been recycled: FutexWake's walk ends at the
	// drained queue's last waiter, and FutexRequeue takes its
	// destination queue before its first move can drain the source.
	free []*WaitQueue
}

// maxFreeQueues caps the free list: enough for the words that drain and
// refill around one another in a busy workload, without pinning the
// queues of a burst of sleepers forever.
const maxFreeQueues = 64

func newFutexTable(k *Kernel) *futexTable { return &futexTable{k: k} }

// noteSize fires futex:table after an entry was created or dropped (the
// stock metrics probe maintains the kernel.futex.table_size gauge from
// it).
func (ft *futexTable) noteSize() {
	k := ft.k
	if !k.probes.Attached(probe.PFutexTable) {
		return
	}
	c := k.probes.Begin(probe.PFutexTable, k.engine.Now())
	c.Val = int64(len(ft.queues))
	k.probes.Fire(c)
}

// queue returns the wait queue for k, creating the table entry if the
// word has no waiters yet. Only the wait path (including a requeue
// transferring sleepers) creates entries.
func (ft *futexTable) queue(k futexKey) *WaitQueue {
	q := ft.queues[k]
	if q == nil {
		if ft.queues == nil {
			ft.queues = make(map[futexKey]*WaitQueue)
		}
		if n := len(ft.free); n > 0 {
			q = ft.free[n-1]
			ft.free[n-1] = nil
			ft.free = ft.free[:n-1]
			q.key = k
		} else {
			q = &WaitQueue{ft: ft, key: k}
		}
		ft.queues[k] = q
		ft.noteSize()
	}
	return q
}

// lookup returns the wait queue for k without creating an entry (nil
// when nothing sleeps on the word) — the wake path must not populate
// the table.
func (ft *futexTable) lookup(k futexKey) *WaitQueue { return ft.queues[k] }

// drop deletes a drained queue's table entry (called from unlink when
// the last waiter leaves) and keeps the queue for reuse.
func (ft *futexTable) drop(q *WaitQueue) {
	delete(ft.queues, q.key)
	if len(ft.free) < maxFreeQueues {
		ft.free = append(ft.free, q)
	}
	ft.noteSize()
}

// FutexWait implements futex(FUTEX_WAIT): if the 64-bit word at addr in
// the caller's address space still holds expected, block until woken;
// otherwise return ErrFutexAgain immediately.
func (t *Task) FutexWait(addr uint64, expected uint64) error {
	t.live()
	return t.futexWait(addr, expected, 0)
}

// FutexWaitTimeout is FutexWait with a relative timeout: if no wake (or
// signal) arrives within d of virtual time, the wait fails with
// ErrTimedOut; d <= 0 means wait forever. Waiters that re-check their
// condition after every return use FutexSleep instead.
func (t *Task) FutexWaitTimeout(addr uint64, expected uint64, d sim.Duration) error {
	t.live()
	return t.futexWait(addr, expected, d)
}

// Backoff is one waiter's lost-wake recovery timeout (see FutexSleep):
// it runs from Base, which must be positive, up to Max. A waiter keeps
// one for as long as its timeout should carry over between sleeps.
type Backoff struct {
	Base, Max sim.Duration
	next      sim.Duration // the next armed sleep's timeout; 0 means Base
}

// FutexSleep is the lost-wake recovery sleep: FutexWait on addr while it
// holds val. When fault:armed says the futex_lost_wake site could drop a
// wake aimed at t, the sleep is bounded by b's timeout, so a lost wake
// costs latency, not liveness. The timeout starts at b.Base, doubles on
// each consecutive ETIMEDOUT up to b.Max and goes back to b.Base after
// any other return. When the site is not armed the sleep is untimed and
// b is left alone, so fault-free schedules keep their virtual time.
//
// A wake, EAGAIN, EINTR and ETIMEDOUT all return nil: the caller
// re-checks its condition and sleeps again. Any other error, such as a
// fault on the word's page, is returned as is.
func (t *Task) FutexSleep(addr, val uint64, b *Backoff) error {
	t.live()
	var err error
	if t.kernel.faultArmed(t, probe.SiteFutexLostWake) {
		d := b.next
		if d == 0 {
			d = b.Base
		}
		err = t.futexWait(addr, val, d)
		switch {
		case err != ErrTimedOut:
			b.next = 0
		case d > b.Max/2:
			b.next = b.Max
		default:
			b.next = 2 * d
		}
	} else {
		err = t.futexWait(addr, val, 0)
	}
	switch err {
	case ErrFutexAgain, ErrInterrupted, ErrTimedOut:
		return nil
	}
	return err
}

func (t *Task) futexWait(addr uint64, expected uint64, timeout sim.Duration) error {
	k := t.kernel
	fr := k.sysEnter(t, probe.SiteFutexWait)
	if k.probes.Attached(probe.PFutexWait) {
		c := k.probes.Begin(probe.PFutexWait, k.engine.Now())
		c.Task = t
		c.Addr = addr
		k.probes.Fire(c)
	}
	t.Charge(k.machine.Costs.FutexWaitCall)
	if err := k.faultSyscall(t, probe.SiteFutexWait); err != nil {
		k.sysExit(t, fr)
		return err
	}
	val, err := t.space.ReadU64(addr, t)
	if err != nil {
		k.sysExit(t, fr)
		return err
	}
	if val != expected {
		k.sysExit(t, fr)
		return ErrFutexAgain
	}
	if k.probes.Attached(probe.PFaultSite) {
		c := k.faultCtx(probe.PFaultSite, t, probe.SiteFutexSpurious)
		c.Addr = addr
		if k.probes.Fire(c).Drop {
			// A spurious wakeup: the caller observes EAGAIN without having
			// slept, as if the word had changed and changed back.
			k.fxStats.Spurious++
			if k.Tracing() {
				k.Emit(t, "fault", "futex spurious wakeup addr=%#x", addr)
			}
			k.faultFired(t, probe.SiteFutexSpurious, nil)
			k.sysExit(t, fr)
			return ErrFutexAgain
		}
	}
	q := k.futexes.queue(futexKey{t.space.ID, addr})
	if timeout > 0 {
		// Matching on waitSeq alone (plus the blocked state) keeps the
		// timeout armed across a FutexRequeue, which moves the sleeper
		// to another queue without ending the sleep.
		k.armTimeout(t, timeout, probe.SiteTimerFutex)
	}
	k.fxStats.Blocked++
	switch k.block(t, q, WaitFutex, addr, nil) {
	case WakeInterrupted:
		k.fxStats.Interrupted++
		k.sysExit(t, fr)
		return ErrInterrupted
	case WakeTimeout:
		k.fxStats.Timeouts++
		if k.probes.Attached(probe.PFutexTimeout) {
			c := k.probes.Begin(probe.PFutexTimeout, k.engine.Now())
			c.Task = t
			c.Addr = addr
			k.probes.Fire(c)
		}
		k.sysExit(t, fr)
		return ErrTimedOut
	}
	k.fxStats.Resumed++
	k.sysExit(t, fr)
	return nil
}

// FutexWake implements futex(FUTEX_WAKE): wake up to n waiters on addr.
// The caller pays the wake system-call; each woken task additionally
// experiences the kernel wakeup latency before running.
//
// Return-value semantics under fault injection: the return counts wake
// slots *claimed*, including wakes eaten by the futex_lost_wake site —
// a genuinely lost wakeup deceives the waker into believing it woke
// someone, which is precisely the hazard the site models. The `woken`
// metric (and FutexStats.Delivered) count only wakes actually delivered;
// FutexStats.Lost accounts for the difference, so
// return == Delivered + Lost holds per call.
func (t *Task) FutexWake(addr uint64, n int) int {
	t.live()
	k := t.kernel
	fr := k.sysEnter(t, probe.SiteFutexWake)
	k.fxStats.WakeCalls++
	if k.probes.Attached(probe.PFutexWake) {
		c := k.probes.Begin(probe.PFutexWake, k.engine.Now())
		c.Task = t
		c.Addr = addr
		c.Val = int64(n)
		k.probes.Fire(c)
	}
	t.Charge(k.machine.Costs.FutexWakeCall)
	key := futexKey{t.space.ID, addr}
	claimed, delivered := 0, 0
	// The wake path looks the queue up without creating it: waking a
	// word nobody sleeps on must not populate the futex table.
	//
	// w walks the queue in FIFO order: a dropped wake consumes its slot
	// but must advance past the doomed waiter (which stays queued),
	// otherwise one waiter whose fault stream keeps firing absorbs every
	// slot and starves the rest. The successor is captured before
	// unlinking because unlink clears the links (and may drop the
	// drained queue's table entry).
	if q := k.futexes.lookup(key); q != nil {
		for w := q.head; claimed < n && w != nil; {
			next := w.wqNext
			claimed++
			if k.futexWakeOne(t, q, w, addr) {
				delivered++
			}
			w = next
		}
	}
	k.fxStats.Claimed += uint64(claimed)
	k.fxStats.Delivered += uint64(delivered)
	if k.probes.Attached(probe.PFutexWoken) {
		c := k.probes.Begin(probe.PFutexWoken, k.engine.Now())
		c.Task = t
		c.Addr = addr
		c.Val = int64(delivered)
		k.probes.Fire(c)
	}
	k.sysExit(t, fr)
	return claimed
}

// futexWakeOne claims one wake slot for waiter w, asleep on queue q of
// the word at addr. It consults the per-waiter futex_lost_wake fault
// site — a Drop verdict eats the wake (the slot is consumed, the waiter
// stays queued, the ledger counts a Lost) — and otherwise unlinks the
// waiter and makes it runnable. It reports whether the wake was
// delivered. Both FutexWake and FutexRequeue's wake half claim every
// slot through here, so fault injection and the Claimed/Delivered/Lost
// ledger see requeue wakes exactly as they see plain wakes.
func (k *Kernel) futexWakeOne(waker *Task, q *WaitQueue, w *Task, addr uint64) bool {
	if k.probes.Attached(probe.PFaultSite) {
		c := k.faultCtx(probe.PFaultSite, waker, probe.SiteFutexLostWake)
		c.Waiter = w
		c.Addr = addr
		if k.probes.Fire(c).Drop {
			// Lost wakeup: silently drop the wake destined for this
			// waiter. The waker proceeds believing it woke someone; the
			// waiter stays asleep until a retry, timeout or later wake.
			k.fxStats.Lost++
			if k.Tracing() {
				k.Emit(waker, "fault", "futex lost wake addr=%#x", addr)
			}
			k.faultFired(waker, probe.SiteFutexLostWake, nil)
			return false
		}
	}
	q.unlink(w)
	k.makeRunnable(w, k.machine.Costs.FutexWakeLatency)
	return true
}

// FutexRequeue implements futex(FUTEX_CMP_REQUEUE): if the 64-bit word
// at addr still holds expected, wake up to nWake waiters on addr, then
// transfer up to nMove of the remaining waiters — in FIFO order, without
// waking them — onto the wait queue of addr2. It returns the number of
// wake slots claimed plus waiters moved; as with FutexWake, a claimed
// slot whose wake the futex_lost_wake site ate still counts (the caller
// is deceived exactly as a real lost wakeup would deceive it), and the
// doomed waiter stays on addr, eligible for the move half. Moved
// sleepers keep their pending timeout (a timed wait's timer matches on
// the sleep's waitSeq, not its queue) and are thereafter woken by wakes
// on addr2; the transfer itself creates addr2's table entry only because
// actual sleepers arrive on it, so the create-on-wait table discipline
// is preserved. A moved sleeper's WaitAddr follows it to addr2. addr2
// must differ from addr (EINVAL, as in Linux).
func (t *Task) FutexRequeue(addr, expected uint64, nWake, nMove int, addr2 uint64) (int, error) {
	t.live()
	k := t.kernel
	fr := k.sysEnter(t, probe.SiteFutexRequeue)
	t.Charge(k.machine.Costs.FutexWakeCall)
	if addr2 == addr {
		k.sysExit(t, fr)
		return 0, ErrInvalid
	}
	val, err := t.space.ReadU64(addr, t)
	if err != nil {
		k.sysExit(t, fr)
		return 0, err
	}
	if val != expected {
		k.sysExit(t, fr)
		return 0, ErrFutexAgain
	}
	claimed, delivered, moved := 0, 0, 0
	if q := k.futexes.lookup(futexKey{t.space.ID, addr}); q != nil {
		for w := q.head; claimed < nWake && w != nil; {
			next := w.wqNext
			claimed++
			if k.futexWakeOne(t, q, w, addr) {
				delivered++
			}
			w = next
		}
		if nMove > 0 && q.Len() > 0 {
			// The destination entry is created only now that sleepers
			// actually arrive on it.
			q2 := k.futexes.queue(futexKey{t.space.ID, addr2})
			for ; moved < nMove && q.head != nil; moved++ {
				w := q.head
				q.unlink(w)
				q2.push(w)
				w.blockedOn = q2
				// The sleeper now waits on addr2; the wait-for graph reads
				// the annotation live, so its futex edge follows the move.
				w.waitAddr = addr2
			}
		}
	}
	k.fxStats.Claimed += uint64(claimed)
	k.fxStats.Delivered += uint64(delivered)
	k.fxStats.Requeued += uint64(moved)
	if k.probes.Attached(probe.PFutexWoken) {
		c := k.probes.Begin(probe.PFutexWoken, k.engine.Now())
		c.Task = t
		c.Addr = addr
		c.Val = int64(delivered)
		k.probes.Fire(c)
	}
	if k.probes.Attached(probe.PFutexRequeue) {
		c := k.probes.Begin(probe.PFutexRequeue, k.engine.Now())
		c.Task = t
		c.Addr = addr2
		c.Val = int64(moved)
		k.probes.Fire(c)
	}
	k.sysExit(t, fr)
	return claimed + moved, nil
}

// FutexWaiters reports how many tasks sleep on the given word (for tests
// and diagnostics).
func (k *Kernel) FutexWaiters(space uint64, addr uint64) int {
	q := k.futexes.lookup(futexKey{space, addr})
	if q == nil {
		return 0
	}
	return q.Len()
}

// FutexTableSize reports the number of live futex-table entries — words
// with at least one sleeper. Hygiene invariant: the table holds no
// drained queue, so this returns 0 at clean quiescence (the explorer's
// quiescence oracle relies on it).
func (k *Kernel) FutexTableSize() int { return len(k.futexes.queues) }

// waitTimer is a pooled timeout for one sleep of a task: a timed futex
// wait or a Nanosleep. The closure is built once per pooled object and
// captures only the object, so arming a timeout allocates nothing in
// steady state; the object recycles when its timer fires (After always
// fires, even when the sleep ended first — the fire then wakes nobody,
// thanks to the waitSeq guard).
type waitTimer struct {
	k    *Kernel
	task *Task
	seq  uint64
	site probe.SiteID // timer:fire's site: SiteTimerFutex or SiteTimerSleep
	fn   func()

	// armed is the pool-hygiene tripwire: true from handout until the
	// timer fires. The pool's invariant is "pooled object has no pending
	// event" — objects recycle only in fire — and the assertion in
	// armTimeout turns any future violation (say, a cancel path that
	// pools an armed timer) into a panic at handout rather than a stale
	// timer silently waking another waiter's sleep.
	armed bool
}

// maxTimerPool bounds the kernel's timer-object pool, mirroring the
// engine's callback-event freelist bound: a burst of a million in-flight
// timers should not pin a million dead objects forever.
const maxTimerPool = 1024

// armTimeout arms a timer that ends t's next sleep after d, unless the
// sleep has ended by then; the caller blocks right after. block will
// bump waitSeq to exactly t.waitSeq+1 (nothing can block in between:
// After only schedules a callback), and the timer fires only if the task
// is still in that very sleep. Because every blocking wait on any path
// increments waitSeq, a task that woke and re-blocked on the same queue
// (say via Semaphore.Wait on the same word) no longer matches.
func (k *Kernel) armTimeout(t *Task, d sim.Duration, site probe.SiteID) {
	var wt *waitTimer
	if n := len(k.timers); n > 0 {
		wt = k.timers[n-1]
		k.timers[n-1] = nil
		k.timers = k.timers[:n-1]
		if wt.armed {
			panic(fmt.Sprintf("kernel: timer pool handed out an armed timer (task=%s seq=%d)",
				pidString(wt.task), wt.seq))
		}
	} else {
		wt = &waitTimer{k: k}
		wt.fn = wt.fire
	}
	wt.task, wt.seq, wt.site, wt.armed = t, t.waitSeq+1, site, true
	t.timers++
	k.engine.After(d, wt.fn)
}

func (wt *waitTimer) fire() {
	k, t, seq, site := wt.k, wt.task, wt.seq, wt.site
	t.timers--
	wt.task = nil
	wt.armed = false
	if len(k.timers) < maxTimerPool {
		k.timers = append(k.timers, wt)
	}
	if k.probes.Attached(probe.PTimerFire) {
		c := k.probes.Begin(probe.PTimerFire, k.engine.Now())
		c.SetSite(site)
		c.Task = t
		k.probes.Fire(c)
	}
	// The sleep is identified by its waitSeq — bumped by every blocking
	// wait on any path — so a stale timer can never wake a later sleep,
	// and a requeued waiter (now on another word's queue) still times
	// out.
	if t.waitSeq == seq && t.state == TaskBlocked && t.blockedOn != nil {
		t.blockedOn.remove(t)
		t.wakeReason = WakeTimeout
		k.makeRunnable(t, k.machine.Costs.KernelSwitch)
	}
	// A thread joined while this timer was pending is reaped now.
	k.reap(t)
}

// Semaphore is a counting semaphore over a futex word, mirroring the
// glibc sem_t used by the paper's BLOCKING evaluation. The word lives in
// simulated memory so PiP tasks sharing the address space share the
// semaphore.
type Semaphore struct {
	addr uint64
}

// NewSemaphore allocates a semaphore word in the task's address space
// with the given initial count.
func (t *Task) NewSemaphore(initial uint64) (*Semaphore, error) {
	t.live()
	addr, err := t.space.Mmap(8, semProt, "semaphore", true, t)
	if err != nil {
		return nil, err
	}
	if err := t.space.WriteU64(addr, initial, t); err != nil {
		return nil, err
	}
	return &Semaphore{addr: addr}, nil
}

// Addr returns the semaphore word's address.
func (s *Semaphore) Addr() uint64 { return s.addr }

// Wait decrements the semaphore, blocking while it is zero (sem_wait).
func (s *Semaphore) Wait(t *Task) error {
	k := t.kernel
	for {
		t.Charge(k.machine.Costs.AtomicOp)
		v, err := t.space.ReadU64(s.addr, t)
		if err != nil {
			return err
		}
		if v > 0 {
			return t.space.WriteU64(s.addr, v-1, t)
		}
		if err := t.FutexWait(s.addr, 0); err != nil && err != ErrFutexAgain {
			return err
		}
	}
}

// Post increments the semaphore and wakes one waiter (sem_post).
func (s *Semaphore) Post(t *Task) error {
	k := t.kernel
	t.Charge(k.machine.Costs.AtomicOp)
	v, err := t.space.ReadU64(s.addr, t)
	if err != nil {
		return err
	}
	if err := t.space.WriteU64(s.addr, v+1, t); err != nil {
		return err
	}
	t.FutexWake(s.addr, 1)
	return nil
}

// Value reads the current count (for tests).
func (s *Semaphore) Value(t *Task) (uint64, error) {
	return t.space.ReadU64(s.addr, t)
}
