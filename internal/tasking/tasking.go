// Package tasking is a BOLT-style task-parallel runtime over bi-level
// threads (the paper's §III: "If ULT is used for [the] underlying OpenMP
// runtime, instead of using PThreads, then this overhead can be
// reduced"). It provides nested fork-join task groups and parallel-for
// loops whose tasks are lightweight user contexts scheduled by the BLT
// pool — so an over-subscribed nested parallel region costs ~150 ns per
// switch instead of a kernel context switch.
//
// Blocking work inside a task (file I/O, etc.) is wrapped with the task's
// Exec, which couples the underlying BLT to its original kernel context —
// task parallelism and system-call consistency compose.
package tasking

import (
	"errors"
	"fmt"

	"repro/internal/blt"
	"repro/internal/kernel"
	"repro/internal/sim"
)

// ErrStopped is returned when submitting to a stopped runtime.
var ErrStopped = errors.New("tasking: runtime stopped")

// Func is a task body. The TaskCtx gives access to time charging,
// blocking-call bracketing, and nested spawning.
type Func func(tc *TaskCtx)

// task is one pending unit of work.
type task struct {
	fn    Func
	group *Group
}

// Runtime is a work pool of N worker BLTs fed from a shared queue. An
// idle worker couples with its original KC and blocks on the work
// semaphore there (on the system-call cores), leaving the program cores
// free — the Fig. 6 partitioning applied to a tasking runtime.
type Runtime struct {
	pool    *blt.Pool
	workers []*blt.BLT
	queue   []*task
	workSem *kernel.Semaphore
	stopped bool

	// Stats.
	executed uint64
}

// Config configures the runtime.
type Config struct {
	ProgCores    []int
	SyscallCores []int
	Idle         blt.IdlePolicy
	// Workers is the number of worker BLTs; it may exceed the core
	// count (nested parallelism over-subscribes gracefully with ULTs).
	Workers int
}

// New creates the runtime with its workers. The creator task pays the
// spawn costs. Call Shutdown (then reap the worker KCs via wait) when
// done.
func New(creator *kernel.Task, cfg Config) (*Runtime, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = len(cfg.ProgCores)
	}
	pool, err := blt.NewPool(creator, blt.Config{
		ProgCores:    cfg.ProgCores,
		SyscallCores: cfg.SyscallCores,
		Idle:         cfg.Idle,
		SwitchTLS:    false, // plain ULT-style workers (BLT ⊃ ULT)
		WorkStealing: true,
	})
	if err != nil {
		return nil, err
	}
	workSem, err := creator.NewSemaphore(0)
	if err != nil {
		return nil, err
	}
	rt := &Runtime{pool: pool, workSem: workSem}
	for i := 0; i < cfg.Workers; i++ {
		w, err := pool.Spawn(rt.workerBody, blt.SpawnOpts{
			Name:      fmt.Sprintf("worker%d", i),
			Scheduler: -1,
		})
		if err != nil {
			return nil, err
		}
		rt.workers = append(rt.workers, w)
	}
	return rt, nil
}

// Executed reports how many tasks have completed.
func (rt *Runtime) Executed() uint64 { return rt.executed }

// Workers reports the worker count.
func (rt *Runtime) Workers() int { return len(rt.workers) }

// workerBody: decouple, then serve the queue. One semaphore count is
// posted per submitted task; a worker that wins a count but finds the
// queue drained (an ancestor executed the task inline in WaitCtx)
// simply waits again.
func (rt *Runtime) workerBody(b *blt.BLT) int {
	b.Decouple()
	for {
		b.Exec(func(kc *kernel.Task) { rt.workSem.Wait(kc) })
		if rt.stopped {
			break
		}
		if len(rt.queue) == 0 {
			continue // task was helped-out inline
		}
		t := rt.queue[0]
		rt.queue = rt.queue[1:]
		tc := &TaskCtx{rt: rt, b: b, group: t.group}
		t.fn(tc)
		rt.finish(b.Carrier(), t)
	}
	b.Couple()
	return 0
}

// finish retires a task: stats, group accounting, completion signal.
func (rt *Runtime) finish(carrier *kernel.Task, t *task) {
	rt.executed++
	g := t.group
	if g == nil {
		return
	}
	g.pending--
	if g.pending == 0 && g.done != nil {
		g.done.Post(carrier)
	}
}

// submit queues a task and posts one work count. from is any kernel
// task sharing the pool's address space (futexes are space-keyed, so
// posting from a scheduler carrier is sound).
func (rt *Runtime) submit(from *kernel.Task, t *task) {
	rt.queue = append(rt.queue, t)
	rt.workSem.Post(from)
}

// Shutdown stops the workers (waking each blocked one), reaps their KCs
// and shuts the pool down.
func (rt *Runtime) Shutdown(creator *kernel.Task) {
	if rt.stopped {
		return
	}
	rt.stopped = true
	for range rt.workers {
		rt.workSem.Post(creator)
	}
	for range rt.workers {
		creator.Wait()
	}
	rt.pool.Shutdown(creator)
}

// Group is a fork-join task group (an OpenMP taskgroup).
type Group struct {
	rt      *Runtime
	pending int
	done    *kernel.Semaphore // posted when pending drains (root groups)
}

// TaskCtx is the handle passed to running tasks.
type TaskCtx struct {
	rt    *Runtime
	b     *blt.BLT
	group *Group
}

// Compute charges d of computation to the current carrier.
func (tc *TaskCtx) Compute(d sim.Duration) { tc.b.Carrier().Compute(d) }

// Exec runs fn coupled to the worker's original kernel context — the
// bracket for blocking system-calls inside a task. The error is non-nil
// when the worker's original KC is gone (fault injection): the function
// did not run and the task should treat the syscall as failed.
func (tc *TaskCtx) Exec(fn func(kc *kernel.Task)) error { return tc.b.Exec(fn) }

// Yield cooperatively yields the worker's core.
func (tc *TaskCtx) Yield() { tc.b.Yield() }

// NewGroup creates a task group for nested fork-join.
func (tc *TaskCtx) NewGroup() *Group { return &Group{rt: tc.rt} }

// Spawn adds a task to the group (OpenMP: #pragma omp task). tc is the
// spawning task's context (its carrier pays the submit cost).
func (g *Group) Spawn(tc *TaskCtx, fn Func) error {
	if g.rt.stopped {
		return ErrStopped
	}
	g.pending++
	g.rt.submit(tc.b.Carrier(), &task{fn: fn, group: g})
	return nil
}

// WaitCtx blocks the calling task until the group drains, yielding the
// core — so nested groups interleave instead of deadlocking (taskwait).
func (g *Group) WaitCtx(tc *TaskCtx) {
	for g.pending > 0 {
		// Help out: run a queued task inline if one is ready (the
		// classic work-first policy that makes nesting deadlock-free).
		if len(g.rt.queue) > 0 {
			t := g.rt.queue[0]
			g.rt.queue = g.rt.queue[1:]
			sub := &TaskCtx{rt: g.rt, b: tc.b, group: t.group}
			t.fn(sub)
			g.rt.finish(tc.b.Carrier(), t)
			continue
		}
		tc.Yield()
	}
}

// Run submits a root task from outside the pool (the "sequential"
// program entering a parallel region) and blocks the calling kernel
// task until the region completes.
func (rt *Runtime) Run(creator *kernel.Task, fn Func) error {
	if rt.stopped {
		return ErrStopped
	}
	done, err := creator.NewSemaphore(0)
	if err != nil {
		return err
	}
	g := &Group{rt: rt, done: done}
	g.pending++
	rt.submit(creator, &task{fn: fn, group: g})
	return done.Wait(creator)
}
