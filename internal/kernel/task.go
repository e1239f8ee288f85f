package kernel

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/probe"
	"repro/internal/sim"
)

// TaskState is the scheduler-visible state of a kernel task.
type TaskState int

// Task states.
const (
	TaskNew TaskState = iota
	TaskReady
	TaskRunning
	TaskBlocked
	TaskZombie
	TaskDead
)

// String implements fmt.Stringer.
func (s TaskState) String() string {
	switch s {
	case TaskNew:
		return "new"
	case TaskReady:
		return "ready"
	case TaskRunning:
		return "running"
	case TaskBlocked:
		return "blocked"
	case TaskZombie:
		return "zombie"
	case TaskDead:
		return "dead"
	}
	return "?"
}

// CloneFlags select what a cloned task shares with its parent, mirroring
// the Linux clone(2) flags PiP depends on.
type CloneFlags uint32

// Clone flag bits.
const (
	// CloneVM shares the parent's address space (the essence of PiP's
	// process mode: same page table, distinct everything else).
	CloneVM CloneFlags = 1 << iota
	// CloneFiles shares the parent's file-descriptor table.
	CloneFiles
	// CloneSighand shares the parent's signal handler table.
	CloneSighand
	// CloneThread makes the child a thread in the parent's thread
	// group: same TGID (getpid value), not waited for by wait().
	CloneThread
)

// PThreadFlags is the flag set pthread_create uses.
const PThreadFlags = CloneVM | CloneFiles | CloneSighand | CloneThread

// PiPProcessFlags is the flag set PiP's process mode uses: shared address
// space, but own PID, own FDs, own signal handlers — a real process in
// the kernel's eyes.
const PiPProcessFlags = CloneVM

// TaskBody is the code a kernel task executes; its return value is the
// exit status.
type TaskBody func(t *Task) int

// Task is a simulated kernel task — the paper's kernel context (KC). It
// is the schedulable entity and the owner of per-process kernel state:
// PID, file descriptors, signal state and the TLS register. A task is
// one object: it carries the sim proc that runs it and is that proc's
// body.
//
// A thread's *Task (CloneThread) is invalid once the Join that returns
// its status has returned, as a pthread_t is after pthread_join: the
// kernel hands the same storage to a later Clone. Read what is still
// needed, such as its name, before the Join.
type Task struct {
	kernel *Kernel
	name   string
	pid    int
	tgid   int // thread-group id: what getpid() returns
	parent *Task

	state  TaskState
	core   *Core // core the task is running on (nil unless Running)
	pinned int   // pinned core id, -1 for unpinned
	// lastCore is the core the task most recently ran on (-1 before its
	// first dispatch); locality-aware scheduler policies prefer it when
	// the task wakes.
	lastCore int

	body TaskBody

	space  *mem.AddressSpace
	fdt    *FDTable
	sig    *SignalState
	tlsReg uint64 // the FS / tpidr_el0 register value

	// The child list is an intrusive doubly-linked list in creation
	// order, threaded through the children's prevSib/nextSib fields:
	// appending a clone and unlinking a reaped child are O(1) and
	// allocation-free, and a reaped child is never retained by a spare
	// slice slot.
	firstChild, lastChild *Task
	prevSib, nextSib      *Task

	childWait WaitQueue // this task blocked in wait() for children
	doneQ     WaitQueue // tasks Join()ed on this task
	exitCode  int
	exited    bool
	isThread  bool // CloneThread: reaped automatically, not via wait()
	// The release rule (reap): joined is set by the Join that sees the
	// thread dead, joiners counts the Joins in flight on it and timers
	// its pending timeout timers. It is reaped once both counts are 0.
	joined  bool
	timers  uint32
	joiners uint32

	// blockedOn, when non-nil, is the wait queue the task sleeps on; it
	// allows signal delivery to interrupt sleeps.
	blockedOn  *WaitQueue
	wakeReason WakeReason
	// Intrusive wait-queue links (see WaitQueue): wq is the queue the
	// task is currently linked on (nil when not queued — unlike
	// blockedOn, which stays set until makeRunnable), wqPrev/wqNext its
	// FIFO neighbours.
	wq             *WaitQueue
	wqPrev, wqNext *Task
	// waitSeq increments in block() on every blocking wait, whatever the
	// path (futex, nanosleep, wait, join); a timed futex wait's timer
	// captures the value of its own sleep so a stale timer can never wake
	// a later sleep — even one re-armed on the very same queue.
	waitSeq uint64

	// Wait annotations, set by block and cleared on wake: what kind of
	// sleep the task is in (plus the futex word or join target that
	// classifies it). supTag is the supervision plane's opaque per-task
	// record.
	waitClass  WaitClass
	waitAddr   uint64
	waitTarget *Task
	supTag     any

	// Stats.
	cpuTime      sim.Duration
	nCtxSwitches uint64

	// proc is the sim proc that runs the task; the task is its body
	// (RunProc). It comes last so that the task's own fields keep the
	// cache lines they had when the proc was a separate object: a
	// futex wake walks thousands of sleepers and touches only those.
	proc sim.Proc
}

// NewTask creates the initial task of a "program" outside any clone
// relationship (like init, or the PiP root before spawning). The task is
// left in TaskNew state; call Start to make it runnable.
func (k *Kernel) NewTask(name string, space *mem.AddressSpace, body TaskBody) *Task {
	pid := k.nextPID
	k.nextPID++
	t := &Task{
		kernel:   k,
		name:     name,
		pid:      pid,
		tgid:     pid,
		state:    TaskNew,
		pinned:   -1,
		lastCore: -1,
		body:     body,
		space:    space,
		fdt:      NewFDTable(),
		sig:      NewSignalState(),
	}
	if space != nil {
		space.Attach()
	}
	k.tasks[pid] = t
	return t
}

// maxFreeTasks bounds the kernel's free list of reaped threads, as
// maxTimerPool bounds the timer pool: a clone takes one, and a burst of
// joins, such as a fan-in of thousands, should not pin them all.
const maxFreeTasks = 1024

// newTask returns zeroed storage for a task: a thread that a Join
// reaped, or a new object.
func (k *Kernel) newTask() *Task {
	if n := len(k.free); n > 0 {
		t := k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
		return t
	}
	return new(Task)
}

// reap returns a joined thread's storage to the free list once nothing
// can still read it: no Join on it is in flight, none of its timeout
// timers is pending (waitTimer.fire reads the task), and it has no
// children (each would unlink itself from the task's child list at
// exit). The storage is
// cleared, so the free list holds nothing the thread referenced.
func (k *Kernel) reap(t *Task) {
	if !t.joined || t.joiners != 0 || t.timers != 0 || t.firstChild != nil {
		return
	}
	if taskPoison {
		*t = Task{name: t.name, pid: t.pid}
		return
	}
	*t = Task{}
	if len(k.free) < maxFreeTasks {
		k.free = append(k.free, t)
	}
}

// live panics if t is a thread that a Join reaped. Every exported
// method calls it; it compiles to nothing without the taskpoison build
// tag.
func (t *Task) live() {
	if taskPoison && t.kernel == nil {
		panic(fmt.Sprintf("kernel: task %s(pid=%d) used after the Join that reaped it", t.name, t.pid))
	}
}

// Start makes a TaskNew task runnable with the given dispatch latency.
func (k *Kernel) Start(t *Task, latency sim.Duration) {
	if t.state != TaskNew {
		panic(fmt.Sprintf("kernel: Start of task %s in state %v", pidString(t), t.state))
	}
	k.makeRunnable(t, latency)
}

// Name returns the task's diagnostic name.
func (t *Task) Name() string { t.live(); return t.name }

// ProcName names the task's sim proc "name/pidN" (sim.Body). It is
// formatted only when a trace, a panic, a deadlock report or a
// chooser's Candidate.Proc prints it.
func (t *Task) ProcName() string { t.live(); return fmt.Sprintf("%s/pid%d", t.name, t.pid) }

// RunProc runs the task's body on its proc and exits the task with the
// body's status (sim.Body). The kernel starts the proc at the task's
// first dispatch.
func (t *Task) RunProc(*sim.Proc) {
	t.live()
	status := t.body(t)
	t.kernel.exitTask(t, status)
}

// PID returns the task's kernel-internal id (what gettid() would say).
func (t *Task) PID() int { t.live(); return t.pid }

// TGID returns the task's thread-group id (what getpid() returns).
func (t *Task) TGID() int { t.live(); return t.tgid }

// State returns the scheduler state.
func (t *Task) State() TaskState { t.live(); return t.state }

// Parent returns the creating task, or nil.
func (t *Task) Parent() *Task { t.live(); return t.parent }

// Space returns the task's address space.
func (t *Task) Space() *mem.AddressSpace { t.live(); return t.space }

// FDTable returns the task's file-descriptor table.
func (t *Task) FDTable() *FDTable { t.live(); return t.fdt }

// Kernel returns the owning kernel.
func (t *Task) Kernel() *Kernel { t.live(); return t.kernel }

// Pinned reports the pinned core id, or -1.
func (t *Task) Pinned() int { t.live(); return t.pinned }

// SetAffinity pins the task to a core (sched_setaffinity with one core).
// Must be called before Start or from the task itself while running; a
// running task migrates at its next scheduling point.
func (t *Task) SetAffinity(core int) error {
	t.live()
	if core < -1 || core >= len(t.kernel.cores) {
		return ErrBadCore
	}
	t.pinned = core
	return nil
}

// TLSReg returns the task's TLS register (FS / tpidr_el0) value.
func (t *Task) TLSReg() uint64 { t.live(); return t.tlsReg }

// CPUTime reports the task's cumulative on-CPU time.
func (t *Task) CPUTime() sim.Duration { t.live(); return t.cpuTime }

// Core returns the core the task currently runs on, or nil.
func (t *Task) Core() *Core { t.live(); return t.core }

// CoreID returns the id of the core the task currently runs on, or -1
// when off-CPU (probe.Task's view of placement).
func (t *Task) CoreID() int {
	t.live()
	if t.core == nil {
		return -1
	}
	return t.core.id
}

// LastCore reports the core the task most recently ran on, or -1 before
// its first dispatch. Unlike Core it stays set while the task is off-CPU;
// locality-aware scheduler policies read it at wake time.
func (t *Task) LastCore() int { t.live(); return t.lastCore }

// CtxSwitches reports how many kernel context switches dispatched this
// task (the per-task share of Kernel.ContextSwitches).
func (t *Task) CtxSwitches() uint64 { t.live(); return t.nCtxSwitches }

// Exited reports whether the task has terminated.
func (t *Task) Exited() bool { t.live(); return t.exited }

// ExitCode returns the task's exit status (valid once Exited).
func (t *Task) ExitCode() int { t.live(); return t.exitCode }

// String implements fmt.Stringer.
func (t *Task) String() string { t.live(); return pidString(t) }

// Charge consumes on-CPU virtual time. The task must be running. This is
// the only way simulated code spends time, so it also feeds the core's
// busy counter (the power proxy used by the idle-policy ablation).
func (t *Task) Charge(d sim.Duration) {
	t.live()
	if t.state != TaskRunning {
		panic(fmt.Sprintf("kernel: Charge by non-running task %s (%v)", pidString(t), t.state))
	}
	t.cpuTime += d
	t.core.busy += d
	t.proc.Advance(d)
}

// Clone creates a child task per the given flags and makes it runnable
// after the architecture's clone/thread-create latency. The calling task
// pays that cost. body runs in the child. A thread child may reuse the
// storage of a thread an earlier Join reaped: its pid and name are new,
// its counters zero, its signal and FD state what flags give it.
func (t *Task) Clone(name string, flags CloneFlags, body TaskBody) *Task {
	t.live()
	return t.ClonePinned(name, flags, -1, body)
}

// ClonePinned is Clone with the child pinned to a CPU core before it
// first runs (clone + sched_setaffinity, as pthread_attr_setaffinity_np
// arranges). core -1 leaves the child unpinned.
func (t *Task) ClonePinned(name string, flags CloneFlags, core int, body TaskBody) *Task {
	t.live()
	k := t.kernel
	cost := k.machine.Costs.CloneCost
	if flags&CloneThread != 0 {
		cost = k.machine.Costs.ThreadCreate
	}
	t.Charge(cost)

	pid := k.nextPID
	k.nextPID++
	if core < -1 || core >= len(k.cores) {
		panic(ErrBadCore)
	}
	// The storage is zeroed, so a TaskNew task needs only these fields;
	// setting them one by one spares copying a whole Task literal in.
	child := k.newTask()
	child.kernel, child.name, child.pid, child.tgid = k, name, pid, pid
	child.parent, child.pinned, child.lastCore, child.body = t, core, -1, body
	if flags&CloneThread != 0 {
		child.tgid = t.tgid
		child.isThread = true
	}
	if flags&CloneVM != 0 {
		child.space = t.space
	} else {
		// Fork-style: a copy-on-write duplicate of the parent's space —
		// the conventional process creation that PiP's shared-space
		// spawn is an alternative to.
		child.space = t.space.ForkCoW(t)
	}
	if child.space != nil {
		child.space.Attach()
	}
	if flags&CloneFiles != 0 {
		child.fdt = t.fdt
	} else {
		child.fdt = t.fdt.Copy()
	}
	if flags&CloneSighand != 0 {
		child.sig = t.sig
	} else {
		child.sig = t.sig.Copy()
	}
	child.tlsReg = t.tlsReg
	t.appendChild(child)
	k.tasks[pid] = child
	if k.Tracing() {
		k.Trace("kernel", "clone %s -> %s (flags=%b)", pidString(t), pidString(child), flags)
	}
	if k.probes.Attached(probe.PTaskSpawn) {
		c := k.probes.Begin(probe.PTaskSpawn, k.engine.Now())
		c.Task = child
		c.Waiter = t
		c.Val = int64(flags)
		k.probes.Fire(c)
	}
	k.makeRunnable(child, 0)
	return child
}

// appendChild links c at the tail of t's child list.
func (t *Task) appendChild(c *Task) {
	c.prevSib = t.lastChild
	if t.lastChild != nil {
		t.lastChild.nextSib = c
	} else {
		t.firstChild = c
	}
	t.lastChild = c
}

// removeChild unlinks c from t's child list, clearing its sibling links
// so the departed child is not retained.
func (t *Task) removeChild(c *Task) {
	if c.prevSib != nil {
		c.prevSib.nextSib = c.nextSib
	} else {
		t.firstChild = c.nextSib
	}
	if c.nextSib != nil {
		c.nextSib.prevSib = c.prevSib
	} else {
		t.lastChild = c.prevSib
	}
	c.prevSib, c.nextSib = nil, nil
}
