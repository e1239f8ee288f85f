// Package supervise is the kernel's self-healing plane: a deterministic,
// virtual-time watchdog that detects deadlocked or stalled workloads,
// rlimit-style resource caps enforced at the kernel's admission sites,
// and seeded exponential-backoff restart budgets for the runtime layers
// that respawn fault-killed helpers.
//
// The plane is a probe program on the kernel's task points. It keeps a
// wait-for graph over every blocked task (task:block / task:wake) — join
// waits point at their target, futex waits point at the task whose TID
// the word holds (the FUTEX_LOCK_PI owner convention), pipe/sleep/child
// waits are leaves — and a periodic watchdog tick walks it, reading each
// task's wait annotations live: cycles are reported as deadlocks, tasks
// blocked past the stall horizon as stalls. All bookkeeping is intrusive
// (one pooled record per blocked task, doubly linked in block order), so
// a healthy tick allocates nothing. Limits answer task:admit and restart
// budgets answer task:restart.
//
// Everything is virtual-time and seeded: two runs of the same workload
// with the same plane configuration make identical decisions. With the
// plane absent the kernel schedules no watchdog events at all, so
// supervision-off runs are byte-identical to builds without it.
package supervise

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/probe"
	"repro/internal/sim"
)

// Defaults for Config's zero values.
const (
	DefaultTick         = 1 * sim.Millisecond
	DefaultStallHorizon = 50 * sim.Millisecond
)

// maxDeadlockRecords caps the deadlocks kept verbatim for oracles and
// reports; beyond it only the counter grows.
const maxDeadlockRecords = 16

// Limits are rlimit-style caps enforced at the kernel's admission sites.
// Zero means unlimited.
type Limits struct {
	// MaxThreads caps live cloned children per parent task (EAGAIN at
	// TryClone).
	MaxThreads int
	// MaxFDs caps open descriptors per FD table (EMFILE at Open).
	MaxFDs int
	// MaxTimers caps armed futex-wait timeouts per task (EAGAIN at a
	// timed FutexWait).
	MaxTimers int
	// MaxFutexWaiters caps sleepers per futex word (EAGAIN at FutexWait).
	MaxFutexWaiters int
}

// LimitHits counts admissions rejected per limit.
type LimitHits struct {
	Threads, FDs, Timers, FutexWaiters uint64
}

// Config parameterizes a Plane.
type Config struct {
	// Tick is the watchdog period (0 = DefaultTick; negative disables
	// the watchdog, keeping only limits and restart budgets).
	Tick sim.Duration
	// StallHorizon flags tasks blocked at least this long (0 =
	// DefaultStallHorizon).
	StallHorizon sim.Duration
	Limits       Limits
	// Restart parameterizes Restarter budgets (zero fields default).
	Restart RestartPolicy
	// Seed feeds the restart jitter RNG (per-restarter lanes are derived
	// from it and the restarter name).
	Seed uint64
}

// Deadlock is one wait-for cycle the watchdog found. PIDs follow the
// cycle order (each waits on the next, the last on the first).
type Deadlock struct {
	At    sim.Time
	PIDs  []int
	Tasks []string
}

// waitRec is the plane's per-blocked-task wait-graph node: pooled,
// intrusively linked in block order, attached to the task through its
// supervision tag. The wait itself (class, futex word, join target) is
// read from the task's live annotations, so a requeued sleeper's edge
// follows it to the new word.
type waitRec struct {
	t     *kernel.Task
	since sim.Time

	stalled    bool
	deadlocked bool
	mark       uint64 // cycle-walk generation

	prev, next *waitRec
}

// Plane is the supervision plane: a probe program plus the watchdog.
type Plane struct {
	k   *kernel.Kernel
	e   *sim.Engine
	cfg Config

	// Blocked-task list (block order) plus a freelist of records.
	head, tail *waitRec
	free       *waitRec
	nblocked   int

	// kids counts live cloned children per parent; timers counts armed
	// futex-wait timeouts per task. Each map exists only when its limit
	// is configured, so unlimited runs skip the bookkeeping entirely.
	kids   map[*kernel.Task]int
	timers map[*kernel.Task]int

	hits LimitHits

	gen        uint64
	ticks      uint64
	stallCount uint64
	deadlocks  []Deadlock
	scratch    []*waitRec // cycle-walk path, reused across ticks

	restarts    map[string]*Restarter // by entity name
	quarantines uint64

	tickFn func()

	mTicks, mStalls, mDeadlocks *metrics.Counter
	mLimThreads, mLimFDs        *metrics.Counter
	mLimTimers, mLimWaiters     *metrics.Counter
	mRestarts, mQuarantines     *metrics.Counter
}

// New creates a plane for the kernel; its supervise.* counters go to
// the kernel's metrics registry, if any. Call Install before the
// simulation runs.
func New(k *kernel.Kernel, cfg Config) *Plane {
	if cfg.Tick == 0 {
		cfg.Tick = DefaultTick
	}
	if cfg.StallHorizon == 0 {
		cfg.StallHorizon = DefaultStallHorizon
	}
	cfg.Restart = cfg.Restart.withDefaults()
	p := &Plane{
		k:        k,
		e:        k.Engine(),
		cfg:      cfg,
		scratch:  make([]*waitRec, 0, 64),
		restarts: make(map[string]*Restarter),
	}
	p.tickFn = p.tick
	if cfg.Limits.MaxThreads > 0 {
		p.kids = make(map[*kernel.Task]int)
	}
	if cfg.Limits.MaxTimers > 0 {
		p.timers = make(map[*kernel.Task]int)
	}
	if reg := k.Metrics(); reg != nil {
		p.mTicks = reg.Counter("supervise.ticks")
		p.mStalls = reg.Counter("supervise.stalls")
		p.mDeadlocks = reg.Counter("supervise.deadlocks")
		p.mLimThreads = reg.Counter("supervise.limit.threads")
		p.mLimFDs = reg.Counter("supervise.limit.fds")
		p.mLimTimers = reg.Counter("supervise.limit.timers")
		p.mLimWaiters = reg.Counter("supervise.limit.futex_waiters")
		p.mRestarts = reg.Counter("supervise.restart.allowed")
		p.mQuarantines = reg.Counter("supervise.restart.quarantined")
	}
	return p
}

// Install attaches the plane to its kernel's probe registry and arms
// the watchdog. It attaches only the points its configuration uses:
// task:block, task:wake and task:restart always, task:admit with any
// limit, and the clone/exit/timer bookkeeping only for the limits that
// need it. Must run before the simulation does: the watchdog schedules
// engine events, and supervised runs are only reproducible when the
// plane ticks from virtual time zero.
func (p *Plane) Install() {
	points := []probe.Point{probe.PTaskBlock, probe.PTaskWake, probe.PTaskRestart}
	if p.cfg.Limits != (Limits{}) {
		points = append(points, probe.PTaskAdmit)
	}
	if p.kids != nil {
		points = append(points, probe.PTaskSpawn)
	}
	if p.kids != nil || p.timers != nil {
		points = append(points, probe.PTaskExit)
	}
	if p.timers != nil {
		points = append(points, probe.PTimerFire)
	}
	p.k.Probes().Attach("supervise", p.fire, points...)
	if p.cfg.Tick > 0 {
		p.e.After(p.cfg.Tick, p.tickFn)
	}
}

// Config returns the effective (defaulted) configuration.
func (p *Plane) Config() Config { return p.cfg }

// fire is the plane's probe program.
func (p *Plane) fire(c *probe.Ctx) probe.Verdict {
	t, _ := c.Task.(*kernel.Task)
	switch c.Point {
	case probe.PTaskBlock:
		p.onBlock(t, c.Now)
	case probe.PTaskWake:
		p.onWake(t)
	case probe.PTaskSpawn:
		p.kids[c.Waiter.(*kernel.Task)]++ // Waiter = the parent
	case probe.PTaskExit:
		p.onExit(t)
	case probe.PTimerFire:
		if c.ID == probe.SiteTimerFutex {
			p.timerFired(t)
		}
	case probe.PTaskAdmit:
		return probe.Verdict{Err: p.admit(t, c.ID, int(c.Val))}
	case probe.PTaskRestart:
		if c.Val == 0 {
			// A registration: the entity is restartable, its first
			// backoff centred on the policy's base.
			return probe.Verdict{Delay: p.cfg.Restart.Base}
		}
		delay, ok := p.restarter(c.Site).Next(c.Now)
		return probe.Verdict{Drop: !ok, Delay: delay}
	}
	return probe.Verdict{}
}

// onBlock links a wait-graph record for t, blocked since now.
func (p *Plane) onBlock(t *kernel.Task, now sim.Time) {
	rec := p.free
	if rec != nil {
		p.free = rec.next
		*rec = waitRec{}
	} else {
		rec = &waitRec{}
	}
	rec.t = t
	rec.since = now
	rec.prev = p.tail
	if p.tail != nil {
		p.tail.next = rec
	} else {
		p.head = rec
	}
	p.tail = rec
	p.nblocked++
	t.SetSupervisionTag(rec)
}

// onWake unlinks t's wait-graph record and returns it to the freelist.
func (p *Plane) onWake(t *kernel.Task) {
	rec, _ := t.SupervisionTag().(*waitRec)
	if rec == nil {
		return
	}
	t.SetSupervisionTag(nil)
	if rec.prev != nil {
		rec.prev.next = rec.next
	} else {
		p.head = rec.next
	}
	if rec.next != nil {
		rec.next.prev = rec.prev
	} else {
		p.tail = rec.prev
	}
	p.nblocked--
	rec.t, rec.prev = nil, nil
	rec.next = p.free
	p.free = rec
}

// onExit drops an exiting task's limit bookkeeping.
func (p *Plane) onExit(t *kernel.Task) {
	if p.kids != nil {
		if parent := t.Parent(); parent != nil {
			if n := p.kids[parent]; n <= 1 {
				delete(p.kids, parent)
			} else {
				p.kids[parent] = n - 1
			}
		}
		delete(p.kids, t)
	}
	if p.timers != nil {
		delete(p.timers, t)
	}
}

// timerFired releases the pending-timer slot a timed futex wait's timer
// held (whether or not the sleep was still live), balancing admitTimer.
func (p *Plane) timerFired(t *kernel.Task) {
	if n, ok := p.timers[t]; ok {
		if n <= 1 {
			delete(p.timers, t)
		} else {
			p.timers[t] = n - 1
		}
	}
}

// admit answers a task:admit fire at admission site id.
func (p *Plane) admit(t *kernel.Task, id probe.SiteID, waiters int) error {
	switch id {
	case probe.SiteClone:
		return p.admitThread(t)
	case probe.SiteOpen:
		return p.admitFD(t)
	case probe.SiteFutexWait:
		return p.admitFutexWait(waiters)
	case probe.SiteFutexTimer:
		return p.admitTimer(t)
	}
	return nil
}

func (p *Plane) admitThread(parent *kernel.Task) error {
	if p.kids == nil || p.kids[parent] < p.cfg.Limits.MaxThreads {
		return nil
	}
	p.hits.Threads++
	if p.mLimThreads != nil {
		p.mLimThreads.Inc()
	}
	return kernel.ErrThreadLimit
}

func (p *Plane) admitFD(t *kernel.Task) error {
	if p.cfg.Limits.MaxFDs <= 0 || t.FDTable().Len() < p.cfg.Limits.MaxFDs {
		return nil
	}
	p.hits.FDs++
	if p.mLimFDs != nil {
		p.mLimFDs.Inc()
	}
	return kernel.ErrFDLimit
}

// admitTimer gates arming a futex-wait timeout and counts it armed.
func (p *Plane) admitTimer(t *kernel.Task) error {
	if p.timers == nil {
		return nil
	}
	if p.timers[t] >= p.cfg.Limits.MaxTimers {
		p.hits.Timers++
		if p.mLimTimers != nil {
			p.mLimTimers.Inc()
		}
		return kernel.ErrTimerLimit
	}
	p.timers[t]++
	return nil
}

func (p *Plane) admitFutexWait(waiters int) error {
	if p.cfg.Limits.MaxFutexWaiters <= 0 || waiters < p.cfg.Limits.MaxFutexWaiters {
		return nil
	}
	p.hits.FutexWaiters++
	if p.mLimWaiters != nil {
		p.mLimWaiters.Inc()
	}
	return kernel.ErrFutexWaiterLimit
}

// --- watchdog ----------------------------------------------------------

// tick is the watchdog body: flag stalls, find wait-for cycles, rearm.
// It stops rearming once the workload has drained (live procs gone) or
// is permanently stuck (no other pending events while tasks still
// block) — in the latter case the final detection pass has already run
// and the engine's own deadlock report follows, so the watchdog must
// not keep the event queue alive forever.
func (p *Plane) tick() {
	p.ticks++
	if p.mTicks != nil {
		p.mTicks.Inc()
	}
	now := p.e.Now()
	p.scanStalls(now)
	p.scanCycles(now)
	if p.e.LiveProcs() == 0 || p.e.PendingEvents() == 0 {
		return
	}
	p.e.After(p.cfg.Tick, p.tickFn)
}

func (p *Plane) scanStalls(now sim.Time) {
	for rec := p.head; rec != nil; rec = rec.next {
		if rec.stalled || now.Sub(rec.since) < p.cfg.StallHorizon {
			continue
		}
		rec.stalled = true
		p.stallCount++
		if p.mStalls != nil {
			p.mStalls.Inc()
		}
		if tr := p.e.Tracer(); tr != nil {
			tr.Add(now, "supervise", "stall: %s(pid=%d) blocked in %s for %v",
				rec.t.Name(), rec.t.PID(), rec.t.WaitClass(), now.Sub(rec.since))
		}
	}
}

// scanCycles walks the wait-for graph from every blocked task. Edges:
// a join wait points at its target; a futex wait points at the task
// whose TID the word currently holds (owner-in-word, the FUTEX_LOCK_PI
// convention) when that task is itself blocked; everything else is a
// leaf. Each walk colors nodes with the tick's generation, so the scan
// is O(blocked) per tick and allocation-free once the path scratch has
// grown to the longest chain.
func (p *Plane) scanCycles(now sim.Time) {
	p.gen++
	path := p.scratch[:0]
	for rec := p.head; rec != nil; rec = rec.next {
		if rec.mark == p.gen || rec.deadlocked {
			continue
		}
		path = path[:0]
		cur := rec
		for {
			cur.mark = p.gen
			path = append(path, cur)
			next := p.edge(cur)
			if next == nil || next.deadlocked {
				break
			}
			if next.mark == p.gen {
				// Revisited this tick: a cycle iff it is on the current
				// path (otherwise the chain merges into an already-walked
				// tree that resolved acyclic).
				for i, r := range path {
					if r == next {
						p.recordCycle(now, path[i:])
						break
					}
				}
				break
			}
			cur = next
		}
	}
	p.scratch = path[:0]
}

// edge resolves rec's wait-for edge, or nil for a leaf.
func (p *Plane) edge(rec *waitRec) *waitRec {
	var holder *kernel.Task
	switch rec.t.WaitClass() {
	case kernel.WaitJoin:
		holder = rec.t.WaitTarget()
	case kernel.WaitFutex:
		space := rec.t.Space()
		if space == nil {
			return nil
		}
		v, err := space.ReadU64(rec.t.WaitAddr(), nil)
		if err != nil || v == 0 || v > uint64(1<<31) {
			return nil
		}
		holder = p.k.Task(int(v))
	default:
		return nil
	}
	if holder == nil {
		return nil
	}
	next, _ := holder.SupervisionTag().(*waitRec)
	return next
}

func (p *Plane) recordCycle(now sim.Time, cycle []*waitRec) {
	if p.mDeadlocks != nil {
		p.mDeadlocks.Inc()
	}
	for _, r := range cycle {
		r.deadlocked = true
	}
	if len(p.deadlocks) >= maxDeadlockRecords {
		return
	}
	d := Deadlock{At: now}
	for _, r := range cycle {
		d.PIDs = append(d.PIDs, r.t.PID())
		d.Tasks = append(d.Tasks, r.t.Name())
	}
	p.deadlocks = append(p.deadlocks, d)
	if tr := p.e.Tracer(); tr != nil {
		tr.Add(now, "supervise", "deadlock cycle: %v", d.Tasks)
	}
}

// --- reports -----------------------------------------------------------

// Ticks reports how many watchdog ticks ran.
func (p *Plane) Ticks() uint64 { return p.ticks }

// Blocked reports the number of currently blocked tasks.
func (p *Plane) Blocked() int { return p.nblocked }

// StallCount reports how many stalls the watchdog flagged in total.
func (p *Plane) StallCount() uint64 { return p.stallCount }

// Deadlocks returns the wait-for cycles found.
func (p *Plane) Deadlocks() []Deadlock { return p.deadlocks }

// LimitHits reports rejected admissions per limit.
func (p *Plane) LimitHits() LimitHits { return p.hits }

// Quarantines reports how many restarters exhausted their budget.
func (p *Plane) Quarantines() uint64 { return p.quarantines }

// Summary renders a one-line health report.
func (p *Plane) Summary() string {
	return fmt.Sprintf("supervise: ticks=%d blocked=%d stalls=%d deadlocks=%d limit_hits={thr:%d fd:%d tmr:%d fxw:%d} quarantines=%d",
		p.ticks, p.nblocked, p.stallCount, len(p.deadlocks),
		p.hits.Threads, p.hits.FDs, p.hits.Timers, p.hits.FutexWaiters, p.quarantines)
}
