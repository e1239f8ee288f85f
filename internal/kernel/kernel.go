// Package kernel implements the simulated operating-system kernel: kernel
// tasks (the paper's kernel contexts, KCs), CPU cores with affinity, a
// per-core scheduler, system-call dispatch with architecture-dependent
// costs, futexes, semaphores, file descriptors, signals and process
// lifecycle (clone/exit/wait).
//
// Everything a BLT's couple()/decouple() interacts with — blocking
// system-calls, per-process kernel state, the TLS register — lives here.
// System-call consistency (the paper's §V-B) is a property *about* this
// kernel: a system-call must execute on the kernel context owning the
// right PID/FD table. Every system-call fires the syscall:enter probe
// point with the executing task, where the ULP layer attaches an audit
// that proves it preserves that property.
//
// Optional planes (fault injection, metrics, the consistency audit,
// scheduling timelines, supervision) all attach to the kernel as probe
// programs (see probes.go and internal/probe); SchedPolicy is the one
// other extension point, because it decides where a waking task runs.
// Tracing is not a plane: Trace, Emit, BeginSpan and EndSpan write to
// the engine's tracer, when one is installed.
package kernel

import (
	"errors"
	"fmt"

	"repro/internal/arch"
	"repro/internal/fs"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/probe"
	"repro/internal/ring"
	"repro/internal/sim"
)

// Errors reported by the kernel.
var (
	ErrBadFD       = errors.New("kernel: bad file descriptor")
	ErrNoChild     = errors.New("kernel: no child processes")
	ErrBadPID      = errors.New("kernel: no such process")
	ErrFutexAgain  = errors.New("kernel: futex value changed (EAGAIN)")
	ErrBadCore     = errors.New("kernel: no such CPU core")
	ErrInterrupted = errors.New("kernel: interrupted by signal (EINTR)")
	ErrInvalid     = errors.New("kernel: invalid argument (EINVAL)")
)

// Kernel is one simulated machine's operating system instance.
type Kernel struct {
	machine *arch.Machine
	engine  *sim.Engine
	cores   []*Core
	phys    *mem.PhysMemory
	fs      *fs.FileSystem

	tasks   map[int]*Task // by PID
	nextPID int
	// free holds the storage of threads that Join reaped, for clones
	// to reuse (see reap).
	free []*Task

	futexes *futexTable

	// timers recycles the timeout objects of timed futex waits and
	// Nanosleep so the block path allocates nothing in steady state
	// (each object carries a closure built once; see waitTimer).
	timers []*waitTimer

	// sleepers holds the tasks in Nanosleep, so a signal can pull them
	// out of their sleep.
	sleepers WaitQueue

	// policy, when set, is the pluggable dispatch plane (see policy.go):
	// it decides the core a waking task is placed on; run queues stay
	// FIFO. nil is the built-in placement.
	policy SchedPolicy

	// metrics, when set, is the registry the kernel publishes into. The
	// per-site handles live in the stock metrics probe (see probes.go),
	// attached by SetMetrics; the metrics-off hot path costs one
	// length check per attach point and zero allocations.
	metrics *metrics.Registry

	// probes is the programmable attach-point layer (see probes.go and
	// internal/probe): every observing or vetoing plane attaches here.
	// The kernel's stock metrics program keeps its handle for detach on
	// re-set.
	probes      *probe.Registry
	metricsProg *probe.Program

	// Stats.
	syscalls    uint64
	ctxSwitches uint64

	// fxStats is the always-on futex conservation ledger (plain counters,
	// no registry indirection): invariant oracles check its conservation
	// laws after explored runs. See FutexStats.
	fxStats FutexStats
}

// FutexStats is the kernel's futex accounting ledger, maintained
// unconditionally (unlike the optional metrics registry) so correctness
// oracles can check conservation laws on every run:
//
//	Claimed == Delivered + Lost            (always)
//	Blocked == Resumed + Timeouts + Interrupted   (at quiescence)
//	Delivered == Resumed                   (at quiescence)
//
// "Claimed" follows FutexWake's documented return-value semantics: every
// wake slot consumed, whether the wake was delivered or eaten by an
// injected lost-wake fault.
type FutexStats struct {
	WakeCalls   uint64 // FutexWake invocations
	Claimed     uint64 // wake slots consumed (delivered + lost)
	Delivered   uint64 // waiters actually made runnable by FutexWake
	Lost        uint64 // wakes eaten by the futex_lost_wake fault site
	Blocked     uint64 // futexWait calls that actually went to sleep
	Resumed     uint64 // sleeps ended by a delivered wake
	Timeouts    uint64 // sleeps ended by the timeout timer
	Interrupted uint64 // sleeps ended by signal delivery
	Spurious    uint64 // injected spurious wakeups (never slept)
	Requeued    uint64 // sleepers moved between words by FutexRequeue
}

// FutexStats returns a copy of the futex conservation ledger.
func (k *Kernel) FutexStats() FutexStats { return k.fxStats }

// ResidualFutexWaiters reports the number of tasks still blocked on any
// futex word — nonzero at quiescence means a lost wakeup (or a missing
// one) left a sleeper behind.
func (k *Kernel) ResidualFutexWaiters() int {
	n := 0
	for _, q := range k.futexes.queues {
		n += q.Len()
	}
	return n
}

// New creates a kernel for the given machine model on the given engine.
func New(e *sim.Engine, m *arch.Machine) *Kernel {
	k := &Kernel{
		machine: m,
		engine:  e,
		phys:    mem.NewPhysMemory(0),
		fs:      fs.New(),
		tasks:   make(map[int]*Task),
		nextPID: 1,
		probes:  probe.NewRegistry(),
	}
	k.futexes = newFutexTable(k)
	for i := 0; i < m.Cores(); i++ {
		c := &Core{id: i}
		// The dispatch-latency callback is built once per core so the
		// dispatch hot path schedules it without allocating a closure.
		c.noteRunFn = func() { k.noteRun(c) }
		k.cores = append(k.cores, c)
	}
	return k
}

// Machine returns the machine model.
func (k *Kernel) Machine() *arch.Machine { return k.machine }

// Engine returns the simulation engine.
func (k *Kernel) Engine() *sim.Engine { return k.engine }

// Phys returns the machine's physical memory.
func (k *Kernel) Phys() *mem.PhysMemory { return k.phys }

// FS returns the machine's tmpfs instance.
func (k *Kernel) FS() *fs.FileSystem { return k.fs }

// Cores reports the number of CPU cores.
func (k *Kernel) Cores() int { return len(k.cores) }

// Core returns core i.
func (k *Kernel) Core(i int) *Core { return k.cores[i] }

// NewAddressSpace creates an address space with this machine's memory
// cost parameters.
func (k *Kernel) NewAddressSpace() *mem.AddressSpace {
	c := k.machine.Costs
	return mem.NewAddressSpace(k.phys, mem.Costs{
		MinorFault: c.MinorFault,
		MajorFault: c.MajorFault,
		TLBMiss:    c.TLBMissCost,
		CopyBytePS: c.MemCopyBytePS,
	})
}

// SetMetrics installs a metrics registry (nil clears it) by attaching
// the stock metrics probe, which resolves its handles once. Install
// before the simulation runs; the probe only observes (zero verdicts),
// so metrics-on and metrics-off runs of the same seed are
// event-identical.
func (k *Kernel) SetMetrics(reg *metrics.Registry) {
	k.metrics = reg
	if k.metricsProg != nil {
		k.probes.Detach(k.metricsProg)
		k.metricsProg = nil
	}
	if reg == nil {
		return
	}
	k.metricsProg = k.probes.Attach("metrics", newStockMetrics(k, reg).fire, stockMetricsPoints...)
}

// Metrics returns the installed registry, or nil. Runtime layers (blt,
// aio) resolve their own handles from it.
func (k *Kernel) Metrics() *metrics.Registry { return k.metrics }

// FinalizeMetrics publishes end-of-run aggregates (per-core busy time,
// totals) into the registry. Call after the engine drains, before
// dumping.
func (k *Kernel) FinalizeMetrics() {
	if k.metrics == nil {
		return
	}
	for _, c := range k.cores {
		k.metrics.Gauge(fmt.Sprintf("kernel.core.%d.busy_ps", c.id)).Set(int64(c.busy))
	}
	k.metrics.Gauge("kernel.syscalls").Set(int64(k.syscalls))
}

// noteRun marks the moment a task starts occupying a core.
func (k *Kernel) noteRun(c *Core) {
	c.runStart = k.engine.Now()
}

// noteStop fires sched:stop as t leaves core c, closing the span that
// began at its dispatch.
func (k *Kernel) noteStop(c *Core, t *Task) {
	if !k.probes.Attached(probe.PSchedStop) {
		return
	}
	pc := k.probes.Begin(probe.PSchedStop, k.engine.Now())
	pc.Task = t
	pc.Val = int64(c.id)
	pc.Dur = pc.Now.Sub(c.runStart)
	k.probes.Fire(pc)
}

// Task returns the task with the given PID, or nil.
func (k *Kernel) Task(pid int) *Task { return k.tasks[pid] }

// Syscalls reports the total number of system-calls executed.
func (k *Kernel) Syscalls() uint64 { return k.syscalls }

// ContextSwitches reports the number of kernel-level context switches.
func (k *Kernel) ContextSwitches() uint64 { return k.ctxSwitches }

// Core is one CPU core: it runs at most one task at a time and keeps a
// FIFO queue of ready tasks assigned to it. The queue is a ring buffer:
// the slice-based queue it replaces copied every remaining element on
// each pop, an O(n) cost per dispatch that dominated deep-backlog wake
// storms.
type Core struct {
	id      int
	current *Task
	runq    ring.Q[*Task]

	// noteRunFn is the pre-built dispatch-latency callback (closes over
	// this core); dispatch schedules it without allocating.
	noteRunFn func()

	busy     sim.Duration // cumulative busy time (power/utilization proxy)
	runStart sim.Time     // when the current occupancy span began
}

// ID returns the core index.
func (c *Core) ID() int { return c.id }

// Current returns the task now running on the core, or nil when idle.
func (c *Core) Current() *Task { return c.current }

// QueueLen reports the number of ready tasks waiting on this core.
func (c *Core) QueueLen() int { return c.runq.Len() }

// Busy reports the core's cumulative busy time.
func (c *Core) Busy() sim.Duration { return c.busy }

func (c *Core) push(t *Task) { c.runq.Push(t) }

func (c *Core) pop() *Task { return c.runq.Pop() }

// pickCore selects a core for a waking task: its pinned core if any,
// otherwise the installed policy's choice, otherwise the lowest-numbered
// idle core, otherwise the core with the shortest queue (ties to the
// lowest index — fully deterministic).
func (k *Kernel) pickCore(t *Task) *Core {
	if t.pinned >= 0 {
		return k.cores[t.pinned]
	}
	if k.policy != nil {
		if c := k.policy.PickCore(k, t); c != nil {
			return c
		}
	}
	best := k.cores[0]
	for _, c := range k.cores {
		if c.current == nil && c.runq.Len() == 0 {
			return c
		}
		if load(c) < load(best) {
			best = c
		}
	}
	return best
}

func load(c *Core) int {
	n := c.runq.Len()
	if c.current != nil {
		n++
	}
	return n
}

// Tracing reports whether the engine has a tracer installed. Hot paths
// gate their Trace and Emit calls on it, so an untraced run pays
// neither the variadic boxing nor the formatting of the arguments.
func (k *Kernel) Tracing() bool { return k.engine.Tracer() != nil }

// Trace records a log line of the given kind ("kernel", "blt"): ulpsim
// -trace shows it, and tests validate protocol sequences against it.
// The message is formatted only when the trace is read.
func (k *Kernel) Trace(kind, format string, args ...interface{}) {
	if tr := k.engine.Tracer(); tr != nil {
		tr.Add(k.engine.Now(), kind, format, args...)
	}
}

// Emit records a typed instant event of the given kind ("fault",
// "signal", ...) attributed to t on its current core.
func (k *Kernel) Emit(t *Task, kind, format string, args ...interface{}) {
	if tr := k.engine.Tracer(); tr != nil {
		tr.Emit(k.engine.Now(), kind, traceMeta(t, ""), format, args...)
	}
}

// BeginSpan opens a duration span of category cat ("syscall",
// "blt.span") labelled label, attributed to t on its current core and
// shown under name when name is set (a BLT's spans carry the BLT's
// name, not its carrier's). It returns the id to pass to EndSpan, or 0
// when no tracer is installed.
func (k *Kernel) BeginSpan(t *Task, cat, name, label string) uint64 {
	return k.beginSpanAt(k.engine.Now(), t, cat, name, label)
}

// beginSpanAt is BeginSpan stamped with an earlier instant: a syscall
// span starts at the call's entry, before its entry Delay is charged.
func (k *Kernel) beginSpanAt(at sim.Time, t *Task, cat, name, label string) uint64 {
	tr := k.engine.Tracer()
	if tr == nil {
		return 0
	}
	return tr.BeginSpan(at, cat, traceMeta(t, name), label)
}

// EndSpan closes the span BeginSpan opened as id, on whatever core t
// now runs; id 0 (nothing was opened) is a no-op.
func (k *Kernel) EndSpan(t *Task, name string, id uint64) {
	if tr := k.engine.Tracer(); tr != nil && id != 0 {
		tr.EndSpan(k.engine.Now(), id, traceMeta(t, name))
	}
}

// traceMeta is the metadata of a record attributed to t, shown under
// name when name is set. A record with neither is bound to no core.
func traceMeta(t *Task, name string) sim.Meta {
	if t == nil {
		if name == "" {
			return sim.NoMeta
		}
		return sim.Meta{Task: name, Core: -1}
	}
	if name == "" {
		name = t.Name()
	}
	return sim.Meta{Task: name, PID: t.PID(), Core: t.CoreID()}
}

func pidString(t *Task) string {
	if t == nil {
		return "<idle>"
	}
	return fmt.Sprintf("%s(pid=%d)", t.name, t.pid)
}
