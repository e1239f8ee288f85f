// Package aio implements POSIX asynchronous I/O the way glibc does — and
// the way the paper describes in §II: "1) a PThread is created at the
// first call of aio_read() or aio_write(), 2) the main thread delegates
// the I/O operation to the created thread, and 3) it waits for the
// completion of the I/O by calling aio_return() or aio_suspend()".
//
// This is the baseline ULP-PiP is compared against in Fig. 7 (slowdown)
// and Fig. 8 (overlap ratio). Two completion-wait styles are modeled:
//
//   - aio_return polling (AIO-return): suited to ULTs, which poll in a
//     yield loop;
//   - aio_suspend blocking (AIO-suspend): blocks the calling KLT on a
//     futex until the helper signals completion.
package aio

import (
	"errors"

	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/probe"
	"repro/internal/sim"
)

// ErrInProgress is returned by Return before the request completes
// (EINPROGRESS).
var ErrInProgress = errors.New("aio: operation in progress")

// ErrClosed is returned when submitting to a closed context.
var ErrClosed = errors.New("aio: context closed")

// ErrHelperDied is the status of a request whose helper thread was
// fault-killed before serving it: the delegated I/O never happened and
// never will (glibc analogue: a pool thread dying takes its queued
// aiocbs with it). The next submission respawns a helper.
var ErrHelperDied = errors.New("aio: helper thread died")

// ErrQuarantined is returned by WriteAsync once task:restart refused the
// helper for good (the supervisor's restart budget is exhausted, the
// helper kept dying): the machine degrades this tenant instead of
// thrashing on respawns.
var ErrQuarantined = errors.New("aio: helper quarantined (restart budget exhausted)")

// killedExitStatus is the fault-killed helper's thread exit status
// (128+SIGKILL, matching the rest of the fault plane).
const killedExitStatus = 137

// Bounds of the waiters' lost-wake recovery sleep (kernel.FutexSleep).
const (
	waitBackoffBase = 10 * sim.Microsecond
	waitBackoffMax  = 1 * sim.Millisecond
)

// Request is one asynchronous write's control block (struct aiocb).
type Request struct {
	FD   int
	Data []byte // write source

	done     bool
	result   int
	err      error
	waitWord uint64 // futex word for aio_suspend
	ctx      *Context
}

// Context is a process's AIO state: the helper thread and its request
// queue. The helper is created lazily on the first submission, exactly
// like glibc's thread pool.
type Context struct {
	owner  *kernel.Task
	helper *kernel.Task

	queue     []*Request
	sleepWord uint64
	closed    bool
	dead      bool // the helper was fault-killed; respawn on next WriteAsync

	quarantined bool // task:restart refused the helper for good

	// Stats.
	submitted, completed, respawns uint64

	// Metric handles (nil when metrics are off).
	mDepth    *metrics.Histogram
	mRespawns *metrics.Counter
}

// New creates an AIO context owned by the given task. No helper thread
// exists until the first submission.
func New(owner *kernel.Task) (*Context, error) {
	word, err := owner.Space().Mmap(8, mem.ProtRead|mem.ProtWrite, "aio.sleep", true, nil)
	if err != nil {
		return nil, err
	}
	c := &Context{owner: owner, sleepWord: word}
	if reg := owner.Kernel().Metrics(); reg != nil {
		c.mDepth = reg.Histogram("aio.queue_depth")
		c.mRespawns = reg.Counter("aio.respawns")
	}
	return c, nil
}

// Helper returns the helper thread's task, nil before the first
// submission and after Close. A helper's *Task is invalid once it has
// been joined (a respawn or Close), like any joined thread's.
func (c *Context) Helper() *kernel.Task { return c.helper }

// Stats reports submitted and completed request counts.
func (c *Context) Stats() (submitted, completed uint64) {
	return c.submitted, c.completed
}

// Respawns reports how many fault-killed helpers were replaced.
func (c *Context) Respawns() uint64 { return c.respawns }

// WriteAsync is aio_write: it enqueues an asynchronous write on behalf of
// t (which must be the owner or share its address space). The first
// submission pays pthread_create for the helper; every submission pays
// the dispatch cost (queue insert + helper wakeup).
func (c *Context) WriteAsync(t *kernel.Task, fd int, data []byte) (*Request, error) {
	if c.closed {
		return nil, ErrClosed
	}
	if c.quarantined {
		return nil, ErrQuarantined
	}
	k := t.Kernel()
	if c.dead {
		// The previous helper was fault-killed; reap it and grow the
		// pool back, exactly as glibc does after a pool thread exits.
		// task:restart (Site = "aio.<owner>") may budget the regrowth:
		// a Delay is a backoff to wait out first, and Drop quarantines
		// the context instead of thrashing. With no verdict the respawn
		// is immediate.
		t.Join(c.helper)
		c.helper = nil
		c.dead = false
		c.respawns++
		if c.mRespawns != nil {
			c.mRespawns.Inc()
		}
		v := k.RestartVerdict(t, "aio."+c.owner.Name(), 1)
		if v.Drop {
			c.quarantined = true
			return nil, ErrQuarantined
		}
		if v.Delay > 0 {
			t.Nanosleep(v.Delay)
		}
	}
	if c.helper == nil {
		c.helper = t.Clone("aio-helper", kernel.PThreadFlags, c.helperBody)
	}
	// The aiocb's completion word is plain user memory (no mmap
	// system-call per request in glibc either).
	word, err := t.Space().Mmap(8, mem.ProtRead|mem.ProtWrite, "aiocb", true, nil)
	if err != nil {
		return nil, err
	}
	r := &Request{FD: fd, Data: data, waitWord: word, ctx: c}
	t.Charge(k.Machine().Costs.AIODispatch)
	c.queue = append(c.queue, r)
	c.submitted++
	if c.mDepth != nil {
		c.mDepth.Observe(int64(len(c.queue)))
	}
	c.kick(t)
	return r, nil
}

// Error is aio_error: one status poll. It returns ErrInProgress until
// completion, then the operation's error (nil on success).
func (r *Request) Error(t *kernel.Task) error {
	t.Charge(t.Kernel().Machine().Costs.AIOReturnPoll)
	if !r.done {
		return ErrInProgress
	}
	return r.err
}

// Return is aio_return: poll, and on completion fetch the result.
func (r *Request) Return(t *kernel.Task) (int, error) {
	if err := r.Error(t); err != nil {
		return 0, err
	}
	return r.result, r.err
}

// Suspend is aio_suspend: block the calling KLT until the request
// completes, then return its result. Injected EINTR, spurious wakes and
// lost completion wakes are absorbed by the recovery sleep, which
// re-checks the completion flag.
func (r *Request) Suspend(t *kernel.Task) (int, error) {
	b := kernel.Backoff{Base: waitBackoffBase, Max: waitBackoffMax}
	for !r.done {
		if err := t.FutexSleep(r.waitWord, 0, &b); err != nil {
			return 0, err
		}
	}
	return r.result, r.err
}

// Close stops the helper thread (joining it) and rejects further
// submissions.
func (c *Context) Close(t *kernel.Task) {
	if c.closed {
		return
	}
	c.closed = true
	if c.helper != nil {
		c.kick(t)
		t.Join(c.helper)
		c.helper = nil
	}
}

// kick wakes the helper if it is sleeping on the empty queue.
func (c *Context) kick(t *kernel.Task) {
	t.Space().WriteU64(c.sleepWord, 1, nil)
	t.FutexWake(c.sleepWord, 1)
}

// die fails every queued request with ErrHelperDied and wakes their
// Suspend waiters: the thread that would have executed the delegated I/O
// is gone, so the requests can never complete. The context stays usable —
// the next WriteAsync replaces the helper.
func (c *Context) die(t *kernel.Task) {
	c.dead = true
	for _, r := range c.queue {
		r.err = ErrHelperDied
		r.done = true
		t.Space().WriteU64(r.waitWord, 1, nil)
		t.FutexWake(r.waitWord, 1)
	}
	c.queue = nil
}

// helperBody is the AIO helper thread: serve requests until closed.
//
// The aio_helper_kill fault site sits at the top of the request loop —
// between requests, never mid-I/O — so a kill strands queued aiocbs
// (failed by die) but never half-written files.
func (c *Context) helperBody(t *kernel.Task) int {
	k := t.Kernel()
	b := kernel.Backoff{Base: waitBackoffBase, Max: waitBackoffMax}
	for {
		if k.FaultShouldDie(t, probe.SiteAIOHelperKill) {
			k.Emit(t, "fault", "aio_helper_kill: %s dies with %d queued", t.Name(), len(c.queue))
			c.die(t)
			return killedExitStatus
		}
		for len(c.queue) == 0 {
			if c.closed {
				return 0
			}
			if err := t.FutexSleep(c.sleepWord, 0, &b); err != nil {
				panic(err)
			}
			t.Space().WriteU64(c.sleepWord, 0, nil)
		}
		r := c.queue[0]
		c.queue = c.queue[1:]
		// The helper shares the submitter's FD table (it is a thread), so
		// the fd is valid here — this is why AIO works for threads where
		// naive delegation across processes would not.
		r.result, r.err = t.Write(r.FD, r.Data, false)
		t.Charge(k.Machine().Costs.AIOComplete)
		r.done = true
		c.completed++
		// Wake aio_suspend waiters.
		t.Space().WriteU64(r.waitWord, 1, nil)
		t.FutexWake(r.waitWord, 1)
	}
}
