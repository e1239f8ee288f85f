// Package supervise is the kernel's self-healing plane: a deterministic,
// virtual-time watchdog that detects deadlocked or stalled workloads,
// and seeded exponential-backoff restart budgets for the runtime layers
// that respawn fault-killed helpers.
//
// The plane is a probe program on the kernel's task points. It keeps a
// wait-for graph over every blocked task (task:block / task:wake) — join
// waits point at their target, futex waits point at the task whose TID
// the word holds (the FUTEX_LOCK_PI owner convention), sleep/child
// waits are leaves — and a periodic watchdog tick walks it, reading each
// task's wait annotations live: cycles are reported as deadlocks, tasks
// blocked past the stall horizon as stalls. All bookkeeping is intrusive
// (one pooled record per blocked task, doubly linked in block order), so
// a healthy tick allocates nothing. Restart budgets answer task:restart.
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

const (
	// Tick is the watchdog period.
	Tick = 1 * sim.Millisecond
	// DefaultStallHorizon is the stall horizon a zero
	// Config.StallHorizon takes.
	DefaultStallHorizon = 50 * sim.Millisecond
)

// maxDeadlockRecords caps the deadlocks kept verbatim for oracles and
// reports; beyond it only the counter grows.
const maxDeadlockRecords = 16

// Config parameterizes a Plane.
type Config struct {
	// StallHorizon flags tasks blocked at least this long (0 =
	// DefaultStallHorizon).
	StallHorizon sim.Duration
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

	gen        uint64
	ticks      uint64
	stallCount uint64
	deadlocks  []Deadlock
	scratch    []*waitRec // cycle-walk path, reused across ticks

	restarts    map[string]*Restarter // by entity name
	quarantines uint64

	tickFn func()

	mTicks, mStalls, mDeadlocks *metrics.Counter
	mRestarts, mQuarantines     *metrics.Counter
}

// New creates a plane for the kernel; its supervise.* counters go to
// the kernel's metrics registry, if any. Call Install before the
// simulation runs.
func New(k *kernel.Kernel, cfg Config) *Plane {
	if cfg.StallHorizon == 0 {
		cfg.StallHorizon = DefaultStallHorizon
	}
	p := &Plane{
		k:        k,
		e:        k.Engine(),
		cfg:      cfg,
		scratch:  make([]*waitRec, 0, 64),
		restarts: make(map[string]*Restarter),
	}
	p.tickFn = p.tick
	if reg := k.Metrics(); reg != nil {
		p.mTicks = reg.Counter("supervise.ticks")
		p.mStalls = reg.Counter("supervise.stalls")
		p.mDeadlocks = reg.Counter("supervise.deadlocks")
		p.mRestarts = reg.Counter("supervise.restart.allowed")
		p.mQuarantines = reg.Counter("supervise.restart.quarantined")
	}
	return p
}

// Install attaches the plane to its kernel's probe registry at
// task:block, task:wake and task:restart, and arms the watchdog. Must
// run before the simulation does: the watchdog schedules engine events,
// and supervised runs are only reproducible when the plane ticks from
// virtual time zero.
func (p *Plane) Install() {
	p.k.Probes().Attach("supervise", p.fire, probe.PTaskBlock, probe.PTaskWake, probe.PTaskRestart)
	p.e.After(Tick, p.tickFn)
}

// fire is the plane's probe program.
func (p *Plane) fire(c *probe.Ctx) probe.Verdict {
	t, _ := c.Task.(*kernel.Task)
	switch c.Point {
	case probe.PTaskBlock:
		p.onBlock(t, c.Now)
	case probe.PTaskWake:
		p.onWake(t)
	case probe.PTaskRestart:
		if c.Val == 0 {
			// A registration: the entity is restartable, its first
			// backoff centred on RestartBase.
			return probe.Verdict{Delay: RestartBase}
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
	p.e.After(Tick, p.tickFn)
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

// StallCount reports how many stalls the watchdog flagged in total.
func (p *Plane) StallCount() uint64 { return p.stallCount }

// Deadlocks returns the wait-for cycles found.
func (p *Plane) Deadlocks() []Deadlock { return p.deadlocks }

// Quarantines reports how many restarters exhausted their budget.
func (p *Plane) Quarantines() uint64 { return p.quarantines }

// Summary renders a one-line health report.
func (p *Plane) Summary() string {
	return fmt.Sprintf("supervise: ticks=%d blocked=%d stalls=%d deadlocks=%d quarantines=%d",
		p.ticks, p.nblocked, p.stallCount, len(p.deadlocks), p.quarantines)
}
