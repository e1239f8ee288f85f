// Package probe is the deterministic programmable probe plane of the
// simulated ULP-PiP stack — the userspace analogue of eBPF/bpftime
// attach points. The kernel, BLT scheduler, futex table and runtime
// layers fire named attach points (Point) at every site they previously
// wired separately for fault injection and metrics; small user-supplied
// Go programs (Func) attach to those points to observe, aggregate into
// per-probe registries, veto (return an error to the caller,
// generalizing fault injection), or delay (charge virtual time,
// generalizing sched-delay faults). Trace records do not pass through
// here: the kernel writes them straight to the engine's sim.Tracer.
//
// Determinism rules:
//
//   - A program must derive its decisions only from the Ctx it is handed
//     (virtual time, task identity, site data) and its own state — never
//     from wall clocks, map iteration order or goroutine identity. Under
//     that contract, same seed + same probes ⇒ same schedule, so chaos
//     digests and explorer traces stay replayable.
//   - Every program attached to a point runs on every fire, even after an
//     earlier program produced a verdict — mirroring the fault plane's
//     stream-advancement invariant (a seeded program's RNG consumption
//     must not depend on what other programs decided).
//   - Observation-only programs (zero Verdict) are schedule-invisible:
//     attaching them changes no event order, which the chaos digest
//     equality tests pin.
//
// Merge rules: the verdicts of every program on a point combine into
// one — the first non-nil Err (in attach order) wins, Delays add
// (saturating at the longest duration) and Drop ORs. Delay is the only
// arithmetic: a program that wants to scale a cost (the fault plane at
// fs_slow) answers with the extra time, computed from Ctx.Dur.
//
// Sites: a fire at a static site (a system-call, a fault site or a
// timer kind) carries a dense SiteID in Ctx.ID beside the name in
// Ctx.Site; programs branch and index on the ID, so no fire hashes,
// compares or builds a string. Only task:restart, whose entities are
// named at run time, carries a name without an ID.
//
// Cost contract: an unattached point costs one nil/length check at the
// fire site and allocates nothing — pinned by the kernel/sim alloc
// regression tests. Fire-time contexts are recycled from a small
// fixed-depth pool, so dispatch itself is allocation-free too.
package probe

import (
	"fmt"
	"math"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// Point names one attach point. The zero value is invalid.
type Point uint8

// Attach points. Every optional plane is a program at some of them: the
// fault plane (internal/fault), the stock metrics program
// (internal/kernel), the consistency audit (internal/core), the
// scheduling timeline (internal/timeline) and the supervisor
// (internal/supervise).
const (
	pInvalid Point = iota

	// PSyscallEnter fires when a system-call begins, before its cost is
	// charged. ID and Site = the syscall. Verdict.Delay is charged to the
	// task (per-tenant throttling); Verdict.Err is ignored here — syscall
	// vetoes go through PFaultSite, which has error plumbing at every
	// fallible site.
	PSyscallEnter
	// PSyscallExit fires when a system-call completes. ID and Site = the
	// syscall, Dur = wall virtual latency (blocking time included).
	PSyscallExit
	// PSchedDispatch fires when the kernel dispatches a task onto a CPU
	// core. Val = the core's ready-queue depth at dispatch.
	PSchedDispatch
	// PSchedSwitch fires on a kernel-level context switch.
	PSchedSwitch
	// PSchedStop fires when a task leaves a CPU core: it blocks, exits
	// or yields. Task = the departing task, Val = the core, Dur = the
	// time since the task's dispatch took effect (the occupancy span).
	PSchedStop
	// PSchedULT fires when a BLT scheduler dispatches a user context.
	// Verdict.Delay is charged to the carrier before the swap.
	PSchedULT
	// PSchedSteal fires when a BLT scheduler steals a UC from a sibling.
	PSchedSteal
	// PFutexWait fires when a task enters futex_wait. Addr = word.
	PFutexWait
	// PFutexWake fires on a futex wake call. Addr = word, Val = slots
	// requested.
	PFutexWake
	// PFutexWoken fires after a wake/requeue delivered wakeups. Val =
	// waiters actually made runnable.
	PFutexWoken
	// PFutexRequeue fires after FUTEX_CMP_REQUEUE moved waiters. Val =
	// waiters moved to the second word.
	PFutexRequeue
	// PFutexTimeout fires when a timed futex wait ends by timeout.
	PFutexTimeout
	// PFutexTable fires when the futex table gains or drops a word entry.
	// Val = live entries after the change.
	PFutexTable
	// PTimerFire fires when a kernel timeout runs: ID = SiteTimerFutex
	// (Site "futex") for a timed futex wait, SiteTimerSleep ("sleep") for
	// a Nanosleep. Task = the task that armed it, also when its sleep
	// already ended (a wake or a signal came first) and the fire wakes
	// nobody.
	PTimerFire
	// PTaskSpawn fires when clone creates a task. Task = child, Waiter =
	// creating task.
	PTaskSpawn
	// PTaskExit fires when a task terminates. Val = exit status.
	PTaskExit
	// PTaskBlock fires when a running task blocks, after its wait
	// annotations (the task's WaitClass, WaitAddr and WaitTarget) are
	// set. Task = the sleeper.
	PTaskBlock
	// PTaskWake fires when a blocked task is made runnable (wake,
	// timeout or signal), before its wait annotations are cleared.
	PTaskWake
	// PTaskRestart fires when a runtime layer decides whether to restart
	// a fault-killed entity. Site = its name ("kc.<name>" for a KC host,
	// "aio.<owner>" for an AIO helper; no ID, the name is dynamic), Val =
	// 1 (one failure). Drop quarantines the entity for good; a positive
	// Delay grants a restart after that backoff. The zero verdict keeps
	// the unsupervised behaviour: a killed KC stays dead and an AIO
	// helper respawns at once. A KC host also fires it once at creation
	// with Val = 0, which records no failure: a positive Delay there
	// marks the host restartable; otherwise couple requests to it fail
	// fast once it is killed.
	PTaskRestart
	// PSignal fires when a signal is delivered. Val = signal number,
	// Task = receiving task.
	PSignal
	// PTLSLoad fires when a task loads its TLS register. Dur = the
	// machine's TLS-load cost.
	PTLSLoad
	// PFaultSite fires at a fault-injection decision point. ID and Site
	// = the fault site (SiteOpen, SiteFutexLostWake, SiteKCKill, ...).
	// The combined verdict decides: Err fails the syscall, Drop kills the
	// task / drops the wake / fires the spurious wakeup, Delay adds
	// latency (sched_delay) or I/O time (fs_slow, where Dur = the
	// unscaled I/O cost).
	PFaultSite
	// PFaultArmed queries whether a site could ever fire for the task,
	// without consuming randomness (Verdict.Drop = armed). The kernel's
	// lost-wake recovery sleep uses it to decide whether to arm a timer.
	PFaultArmed
	// PFaultFired observes an injection that fired (after the PFaultSite
	// verdict was applied). ID, Site and Err (syscall sites) are set.
	PFaultFired
	// PCouple observes a completed BLT couple handshake. Dur = latency.
	PCouple
	// PDecouple observes a completed BLT decouple handshake. Dur =
	// latency.
	PDecouple

	// NumPoints is the number of valid points plus one (index bound).
	NumPoints
)

var pointNames = [NumPoints]string{
	PSyscallEnter:  "syscall:enter",
	PSyscallExit:   "syscall:exit",
	PSchedDispatch: "sched:dispatch",
	PSchedSwitch:   "sched:switch",
	PSchedStop:     "sched:stop",
	PSchedULT:      "sched:ult",
	PSchedSteal:    "sched:steal",
	PFutexWait:     "futex:wait",
	PFutexWake:     "futex:wake",
	PFutexWoken:    "futex:woken",
	PFutexRequeue:  "futex:requeue",
	PFutexTimeout:  "futex:timeout",
	PFutexTable:    "futex:table",
	PTimerFire:     "timer:fire",
	PTaskSpawn:     "task:spawn",
	PTaskExit:      "task:exit",
	PTaskBlock:     "task:block",
	PTaskWake:      "task:wake",
	PTaskRestart:   "task:restart",
	PSignal:        "signal:deliver",
	PTLSLoad:       "tls:load",
	PFaultSite:     "fault:site",
	PFaultArmed:    "fault:armed",
	PFaultFired:    "fault:fired",
	PCouple:        "blt:couple",
	PDecouple:      "blt:decouple",
}

// String returns the point's attach-point name (e.g. "syscall:enter").
func (p Point) String() string {
	if p < NumPoints && pointNames[p] != "" {
		return pointNames[p]
	}
	return fmt.Sprintf("point(%d)", uint8(p))
}

// PointByName resolves an attach-point name; zero Point when unknown.
func PointByName(name string) Point {
	for p := Point(1); p < NumPoints; p++ {
		if pointNames[p] == name {
			return p
		}
	}
	return pInvalid
}

// Points lists every attach point in declaration order.
func Points() []Point {
	out := make([]Point, 0, NumPoints-1)
	for p := Point(1); p < NumPoints; p++ {
		out = append(out, p)
	}
	return out
}

// Task is the task identity a probe sees — satisfied by *kernel.Task
// without the probe layer importing the kernel.
type Task interface {
	Name() string
	PID() int
	TGID() int
	// CoreID reports the CPU core the task currently occupies, -1 when
	// off-CPU.
	CoreID() int
}

// Ctx is the context handed to probe programs at a fire. Fields beyond
// Point and Now are set per the firing point's documentation; the rest
// are zero. Contexts are recycled — programs must not retain them past
// the call.
type Ctx struct {
	Point Point
	// ID qualifies the point with a static site (SetSite): syscall,
	// fault site or timer kind. Zero at points without one.
	ID  SiteID
	Now sim.Time

	// Site is the site's name: ID's table entry, or at task:restart the
	// restarted entity's name.
	Site string

	Task   Task // primary task (nil at sites with no task context)
	Waiter Task // secondary party (wake target, clone creator)

	Addr uint64       // futex word
	Val  int64        // point-specific count (depth, slots, status, signo)
	Dur  sim.Duration // point-specific duration (latency, cost)
	Err  error        // the injected error at PFaultFired
}

// Verdict is a program's decision at a fire. The zero Verdict observes
// without interfering. Verdicts from all programs on a point combine:
// first non-nil Err wins, Delays add (saturating), Drop ORs.
//
// A Verdict is returned through an indirect call on every fire, so it
// stays within four words and four fields: Go passes such a struct in
// registers (ssa.CanSSA) and a larger one through memory, about 15 ns
// more per program call. TestVerdictFitsRegisters pins the limit.
type Verdict struct {
	Err   error
	Delay sim.Duration
	Drop  bool
}

// Func is one probe program. It runs synchronously at the fire site, in
// deterministic virtual time.
type Func func(*Ctx) Verdict

// Program is one attached probe: a Func plus the points it watches and a
// lazily created private metrics registry for aggregation.
type Program struct {
	name   string
	points []Point
	fn     Func
	agg    *metrics.Registry
}

// Name returns the program's attach name.
func (p *Program) Name() string { return p.name }

// PointsAttached returns the points the program is attached to.
func (p *Program) PointsAttached() []Point {
	out := make([]Point, len(p.points))
	copy(out, p.points)
	return out
}

// Agg returns the program's private aggregation registry, creating it on
// first use. Stock probes (SLO, count) publish their histograms here;
// ulpsim dumps it after the run.
func (p *Program) Agg() *metrics.Registry {
	if p.agg == nil {
		p.agg = metrics.NewRegistry()
	}
	return p.agg
}

// fireDepth bounds reentrant fires (a program whose side effects reach
// another attach point). Deeper nesting recycles the oldest context.
const fireDepth = 4

// Registry is one machine's set of attached probe programs, indexed by
// point. The zero/nil Registry is valid and permanently unattached.
type Registry struct {
	progs [NumPoints][]*Program
	all   []*Program

	ctxs  [fireDepth]Ctx
	depth int
}

// NewRegistry creates an empty probe registry.
func NewRegistry() *Registry { return &Registry{} }

// Attached reports whether any program watches point p — the one check
// an unattached fire site pays.
func (r *Registry) Attached(p Point) bool {
	return r != nil && len(r.progs[p]) > 0
}

// Begin leases a fire context for point p at virtual time now. The
// caller fills the point-specific fields and passes it to Fire exactly
// once. Begin/Fire pairs may nest up to the recycle depth.
//
// The context comes back as if zeroed, but Begin writes only what an
// earlier fire can have left: Point and Now are always overwritten, and
// a pointer field is cleared only when set, which spares the store and
// its write-barrier check on the fields most fires leave nil.
func (r *Registry) Begin(p Point, now sim.Time) *Ctx {
	c := &r.ctxs[uint(r.depth)%fireDepth]
	r.depth++
	c.Point, c.ID, c.Now = p, 0, now
	if c.Site != "" {
		c.Site = ""
	}
	if c.Task != nil {
		c.Task = nil
	}
	if c.Waiter != nil {
		c.Waiter = nil
	}
	if c.Err != nil {
		c.Err = nil
	}
	c.Addr, c.Val, c.Dur = 0, 0, 0
	return c
}

// Fire runs every program attached to c.Point and returns the combined
// verdict. All programs run regardless of earlier verdicts (the
// stream-advancement invariant).
func (r *Registry) Fire(c *Ctx) Verdict {
	// The lease is released only after every program ran: a nested
	// Begin from inside a program must not recycle the live context.
	defer func() { r.depth-- }()
	var v Verdict
	for _, pr := range r.progs[c.Point] {
		w := pr.fn(c)
		if v.Err == nil {
			v.Err = w.Err
		}
		if d := v.Delay + w.Delay; d < v.Delay && w.Delay > 0 {
			v.Delay = math.MaxInt64
		} else {
			v.Delay = d
		}
		v.Drop = v.Drop || w.Drop
	}
	return v
}

// Attach registers fn under name at the given points and returns the
// program handle. Attach before the simulation runs: attaching
// mid-flight is deterministic but changes the schedule from that point
// on if the program interferes.
func (r *Registry) Attach(name string, fn Func, points ...Point) *Program {
	pr := &Program{name: name, fn: fn}
	for _, p := range points {
		if p == pInvalid || p >= NumPoints {
			panic(fmt.Sprintf("probe: attach %q to invalid point %d", name, p))
		}
		pr.points = append(pr.points, p)
		r.progs[p] = append(r.progs[p], pr)
	}
	r.all = append(r.all, pr)
	return pr
}

// Detach removes a program from every point it is attached to.
func (r *Registry) Detach(pr *Program) {
	if pr == nil {
		return
	}
	for _, p := range pr.points {
		list := r.progs[p]
		for i, q := range list {
			if q == pr {
				r.progs[p] = append(list[:i], list[i+1:]...)
				break
			}
		}
	}
	for i, q := range r.all {
		if q == pr {
			r.all = append(r.all[:i], r.all[i+1:]...)
			break
		}
	}
	pr.points = nil
}

// Programs returns the attached programs in attach order.
func (r *Registry) Programs() []*Program {
	out := make([]*Program, len(r.all))
	copy(out, r.all)
	return out
}
