package kernel

import (
	"fmt"

	"repro/internal/probe"
	"repro/internal/sim"
)

// WaitQueue is a FIFO queue of blocked kernel tasks. Unlike sim.WaitQ
// (which parks raw procs), waking a task from a WaitQueue goes through
// the scheduler, so the task waits for a CPU core if its core is busy.
//
// The queue is an intrusive doubly-linked list threaded through the
// waiting tasks themselves (Task.wqPrev/wqNext): push, pop and remove
// are all O(1), enqueueing a waiter allocates nothing, and unlinking
// clears the task's link fields so a departed waiter is never retained.
// A task sleeps on at most one queue at a time (block is the only
// enqueuer and the enqueued task is suspended), which is what makes the
// embedded links sound.
type WaitQueue struct {
	head, tail *Task
	n          int

	// ft/key, when ft is non-nil, locate this queue's futex-table entry;
	// unlink drops the entry when the last waiter leaves so the table
	// never accumulates drained queues (see futexTable).
	ft  *futexTable
	key futexKey
}

// Len reports the number of blocked tasks.
func (q *WaitQueue) Len() int { return q.n }

// push appends t, which must not currently be on any queue.
func (q *WaitQueue) push(t *Task) {
	if t.wq != nil {
		panic(fmt.Sprintf("kernel: %s pushed on a wait queue while on another", pidString(t)))
	}
	t.wq = q
	t.wqPrev = q.tail
	if q.tail != nil {
		q.tail.wqNext = t
	} else {
		q.head = t
	}
	q.tail = t
	q.n++
}

// unlink removes t, which must be on q, clearing its link fields.
func (q *WaitQueue) unlink(t *Task) {
	if t.wqPrev != nil {
		t.wqPrev.wqNext = t.wqNext
	} else {
		q.head = t.wqNext
	}
	if t.wqNext != nil {
		t.wqNext.wqPrev = t.wqPrev
	} else {
		q.tail = t.wqPrev
	}
	t.wq, t.wqPrev, t.wqNext = nil, nil, nil
	q.n--
	if q.n == 0 && q.ft != nil {
		q.ft.drop(q)
	}
}

func (q *WaitQueue) pop() *Task {
	t := q.head
	if t == nil {
		return nil
	}
	q.unlink(t)
	return t
}

func (q *WaitQueue) remove(t *Task) bool {
	if t.wq != q {
		return false
	}
	q.unlink(t)
	return true
}

// WakeReason records why a blocked task resumed.
type WakeReason int

// Wake reasons.
const (
	WakeNormal WakeReason = iota
	WakeInterrupted
	WakeTimeout
)

// makeRunnable transitions a New or Blocked task to Ready/Running: it is
// dispatched immediately if its chosen core is idle, queued otherwise.
func (k *Kernel) makeRunnable(t *Task, latency sim.Duration) {
	if t.state != TaskNew && t.state != TaskBlocked {
		panic(fmt.Sprintf("kernel: makeRunnable of %s in state %v", pidString(t), t.state))
	}
	if t.state == TaskBlocked {
		if k.probes.Attached(probe.PTaskWake) {
			c := k.probes.Begin(probe.PTaskWake, k.engine.Now())
			c.Task = t
			k.probes.Fire(c)
		}
		t.waitClass, t.waitAddr, t.waitTarget = WaitNone, 0, nil
	}
	t.blockedOn = nil
	c := k.pickCore(t)
	if c.current == nil {
		k.dispatch(t, c, latency)
		return
	}
	t.state = TaskReady
	c.push(t)
}

// dispatch puts t on core c, resuming (or first-starting) its proc after
// the given latency.
func (k *Kernel) dispatch(t *Task, c *Core, latency sim.Duration) {
	if k.probes.Attached(probe.PSchedDispatch) {
		pc := k.probes.Begin(probe.PSchedDispatch, k.engine.Now())
		pc.Task = t
		pc.Val = int64(c.runq.Len())
		k.probes.Fire(pc)
	}
	c.current = t
	t.core = c
	t.lastCore = c.id
	t.state = TaskRunning
	if k.Tracing() {
		k.Trace("kernel", "dispatch %s on core %d (+%v)", pidString(t), c.id, latency)
	}
	k.engine.After(latency, c.noteRunFn)
	if t.proc.Parked() {
		t.proc.Unpark(latency)
		return
	}
	k.engine.Start(&t.proc, t, latency)
}

// scheduleNext fills a newly idle core from its run queue, charging the
// kernel context-switch cost as dispatch latency.
func (k *Kernel) scheduleNext(c *Core) {
	next := c.pop()
	if next == nil {
		return
	}
	k.ctxSwitches++
	next.nCtxSwitches++
	k.noteSwitch(next)
	k.dispatch(next, c, k.machine.Costs.KernelSwitch)
}

// block suspends the calling task (which must be t itself, running) on
// the given wait queue (nil for anonymous sleeps) and schedules the next
// task on its core. The sleep is annotated with its class plus the futex
// word or join target that classifies it (the supervisor's wait-for
// graph reads them). It returns the reason the task was woken.
func (k *Kernel) block(t *Task, q *WaitQueue, class WaitClass, addr uint64, target *Task) WakeReason {
	if t.state != TaskRunning {
		panic(fmt.Sprintf("kernel: block of non-running %s", pidString(t)))
	}
	t.waitClass, t.waitAddr, t.waitTarget = class, addr, target
	t.state = TaskBlocked
	t.wakeReason = WakeNormal
	// Every blocking wait bumps waitSeq, regardless of the path taken
	// (futex, nanosleep, wait, join). A timed futex wait captures the
	// value its sleep will have; its stale-timer guard is therefore
	// airtight even when the task re-blocks on the very same queue
	// through a different wait path before the timer fires.
	t.waitSeq++
	if q != nil {
		q.push(t)
		t.blockedOn = q
	}
	if k.probes.Attached(probe.PTaskBlock) {
		pc := k.probes.Begin(probe.PTaskBlock, k.engine.Now())
		pc.Task = t
		k.probes.Fire(pc)
	}
	c := t.core
	k.noteStop(c, t)
	t.core = nil
	c.current = nil
	if k.Tracing() {
		k.Trace("kernel", "block %s (core %d now free)", pidString(t), c.id)
	}
	k.scheduleNext(c)
	t.proc.Park()
	return t.wakeReason
}

// WakeOne wakes the oldest waiter on q after the given latency, returning
// it (nil when the queue was empty).
func (k *Kernel) WakeOne(q *WaitQueue, latency sim.Duration) *Task {
	t := q.pop()
	if t == nil {
		return nil
	}
	k.makeRunnable(t, latency)
	return t
}

// WakeAll wakes every waiter on q, returning the count.
func (k *Kernel) WakeAll(q *WaitQueue, latency sim.Duration) int {
	n := 0
	for k.WakeOne(q, latency) != nil {
		n++
	}
	return n
}

// interrupt pulls a task out of an interruptible sleep (signal delivery).
// Reports whether the task was actually sleeping on a queue.
func (k *Kernel) interrupt(t *Task, latency sim.Duration) bool {
	if t.state != TaskBlocked || t.blockedOn == nil {
		return false
	}
	if !t.blockedOn.remove(t) {
		// A blocked task whose blockedOn queue does not actually hold it
		// is a state/queue desync: proceeding would double-wake it (once
		// here, once by whoever really holds it). Failing loudly turns
		// the desync into a shrinkable explorer trace instead of a
		// silent conservation violation.
		panic(fmt.Sprintf("kernel: interrupt of %s: task blocked but not on its blockedOn queue", pidString(t)))
	}
	t.wakeReason = WakeInterrupted
	k.makeRunnable(t, latency)
	return true
}

// exitTask finishes a task: charges teardown, publishes the exit status,
// wakes waiters and releases the core. Runs as the final act of the
// task's proc.
func (k *Kernel) exitTask(t *Task, status int) {
	t.Charge(k.machine.Costs.ExitCost)
	t.exited = true
	t.exitCode = status
	if k.probes.Attached(probe.PTaskExit) {
		c := k.probes.Begin(probe.PTaskExit, k.engine.Now())
		c.Task = t
		c.Val = int64(status)
		k.probes.Fire(c)
	}
	if k.Tracing() {
		k.Trace("kernel", "exit %s status=%d", pidString(t), status)
	}
	if t.space != nil {
		t.space.Detach()
	}
	// Wake anyone Join()ed on this specific task.
	k.WakeAll(&t.doneQ, k.machine.Costs.FutexWakeLatency)
	if t.isThread || t.parent == nil {
		// Threads and the initial task are reaped immediately — including
		// unlinking from the parent's child list, which would otherwise
		// retain every dead thread for the parent's lifetime.
		t.state = TaskDead
		delete(k.tasks, t.pid)
		if t.parent != nil {
			t.parent.removeChild(t)
		}
	} else {
		t.state = TaskZombie
		// Wake a parent blocked in wait().
		k.WakeAll(&t.parent.childWait, k.machine.Costs.FutexWakeLatency)
	}
	c := t.core
	k.noteStop(c, t)
	t.core = nil
	c.current = nil
	k.scheduleNext(c)
	// The proc's body returns after this, terminating the proc.
}

// SchedYield is the sched_yield(2) system-call: reschedule the calling
// task behind any ready task on its core. With an empty queue it costs
// only the trap; otherwise a full kernel context switch happens (the
// Table IV asymmetry).
func (t *Task) SchedYield() {
	t.live()
	var y Spinner
	for !y.SchedYield(t) {
	}
}

// Spin runs step as the task's spin continuation (sim.Proc.Spin): a
// busy-wait loop whose passes run on whichever goroutine dispatches the
// task's resume, so the task's goroutine wakes only when the wait ends.
// Each pass either reports the wait over or ends in exactly one Charge
// or Park; Spinner runs sched_yield that way.
func (t *Task) Spin(step func() bool) { t.live(); t.proc.Spin(step) }

// Proc returns the sim proc that carries the task: user contexts hand
// it between the goroutines that execute the task (sim.Coro).
func (t *Task) Proc() *sim.Proc { t.live(); return &t.proc }

// Spinner is one sched_yield(2) call split into stages, each ending in
// at most one Charge or Park, so that a spin step (Task.Spin) can run
// the call without blocking in it. The caller owns the Spinner — the
// state of a call in flight lives there, not in the task — and the
// blocking SchedYield is a loop over the same stages.
type Spinner struct {
	fr    sysFrame
	stage yieldStage
}

// yieldStage is the next stage of a Spinner's call.
type yieldStage uint8

const (
	yieldEnter  yieldStage = iota // count the call; charge a syscall:enter Delay
	yieldTrap                     // open the span; charge the trap
	yieldSwitch                   // return, or charge the switch to a ready task
	yieldPark                     // hand the core over and park
	yieldExit                     // back on a core: close the call
)

// SchedYield runs t's sched_yield(2) up to its next Charge or Park and
// reports whether the call has returned: false means t was charged or
// parked and the caller runs SchedYield again once t resumes; true
// means the call is over, with no suspension in this step, and the
// Spinner is ready for the next call.
func (y *Spinner) SchedYield(t *Task) bool {
	k := t.kernel
	for {
		switch y.stage {
		case yieldEnter:
			var delay sim.Duration
			y.fr, delay = k.enterFire(t, probe.SiteSchedYield)
			y.stage = yieldTrap
			if delay > 0 {
				t.Charge(delay)
				return false
			}
		case yieldTrap:
			k.enterSpan(t, &y.fr)
			y.stage = yieldSwitch
			t.Charge(k.machine.Costs.SchedYieldNoSwitch)
			return false
		case yieldSwitch:
			if t.core.runq.Len() == 0 {
				return y.exit(t)
			}
			// Accounting matches scheduleNext: one kernel switch,
			// credited to the *incoming* task. (This path used to
			// credit the yielder instead, which made per-task
			// nCtxSwitches sums disagree with the kernel total under
			// yield storms.) The queue pop stays after the Charge —
			// Charge advances virtual time and other events may run
			// meanwhile, so moving it would change which task sits at
			// the queue head.
			k.ctxSwitches++
			y.stage = yieldPark
			t.Charge(k.machine.Costs.KernelSwitch)
			return false
		case yieldPark:
			c := t.core
			next := c.pop()
			next.nCtxSwitches++
			k.noteSwitch(next)
			t.state = TaskReady
			k.noteStop(c, t)
			t.core = nil
			c.push(t)
			c.current = nil
			k.dispatch(next, c, 0)
			y.stage = yieldExit
			t.proc.Park()
			return false
		default: // yieldExit
			return y.exit(t)
		}
	}
}

// exit closes the call and resets the Spinner for the next one.
func (y *Spinner) exit(t *Task) bool {
	t.kernel.sysExit(t, y.fr)
	*y = Spinner{}
	return true
}

// Nanosleep suspends the calling task for the given virtual duration.
// Like nanosleep(2), a signal delivered to the task interrupts the
// sleep: the call returns the unslept remainder and ErrInterrupted
// (EINTR). A completed sleep returns (0, nil). Callers that sleep
// uninterruptibly may ignore both results; the pooled timer's late fire
// finds the sleep over and wakes nobody.
func (t *Task) Nanosleep(d sim.Duration) (sim.Duration, error) {
	t.live()
	k := t.kernel
	fr := k.sysEnter(t, probe.SiteNanosleep)
	t.Charge(k.machine.Costs.SyscallEntry)
	deadline := k.engine.Now().Add(d)
	k.armTimeout(t, d, probe.SiteTimerSleep)
	reason := k.block(t, &k.sleepers, WaitSleep, 0, nil)
	k.sysExit(t, fr)
	if reason == WakeInterrupted {
		remaining := deadline.Sub(k.engine.Now())
		if remaining < 0 {
			remaining = 0
		}
		return remaining, ErrInterrupted
	}
	return 0, nil
}

// Wait implements wait(2): block until some child process exits, reap it
// and return its PID and exit status. Threads (CloneThread) are not
// waitable. The paper relies on this: "the wait() system-call can be
// used to wait for BLT terminations, just like the way used to wait for
// fork()ed processes".
func (t *Task) Wait() (pid, status int, err error) {
	t.live()
	k := t.kernel
	fr := k.sysEnter(t, probe.SiteWait)
	t.Charge(k.machine.Costs.SyscallEntry + k.machine.Costs.WaitCost)
	for {
		// The scan runs the intrusive child list in creation order —
		// identical reap order to the slice it replaces — and removal is
		// an O(1) unlink instead of a splice.
		waitable := 0
		for ch := t.firstChild; ch != nil; ch = ch.nextSib {
			if ch.isThread {
				continue
			}
			waitable++
			if ch.state == TaskZombie {
				ch.state = TaskDead
				delete(k.tasks, ch.pid)
				t.removeChild(ch)
				k.sysExit(t, fr)
				return ch.pid, ch.exitCode, nil
			}
		}
		if waitable == 0 {
			k.sysExit(t, fr)
			return 0, 0, ErrNoChild
		}
		if reason := k.block(t, &t.childWait, WaitChild, 0, nil); reason == WakeInterrupted {
			k.sysExit(t, fr)
			return 0, 0, ErrInterrupted
		}
	}
}

// Join blocks until the given task (typically a CloneThread child)
// exits, returning its status. Models pthread_join: a thread's *Task is
// invalid once the Join that returns its status has returned, and the
// kernel reuses its storage for a later Clone. Every Join in flight on
// one thread gets its status, and the thread is reaped once, after the
// last of them. A process's task stays valid; wait(2) reaps it.
func (t *Task) Join(target *Task) int {
	t.live()
	target.live()
	k := t.kernel
	target.joiners++
	fr := k.sysEnter(t, probe.SiteJoin)
	t.Charge(k.machine.Costs.SyscallEntry)
	for !target.exited {
		k.block(t, &target.doneQ, WaitJoin, 0, target)
	}
	k.sysExit(t, fr)
	status := target.exitCode
	target.joiners--
	if target.isThread {
		target.joined = true
		k.reap(target)
	}
	return status
}
