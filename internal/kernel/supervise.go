package kernel

import (
	"errors"

	"repro/internal/probe"
)

// Resource-limit errors a task:admit program (the supervisor) returns at
// the admission sites. They model the errno a real kernel returns when
// an rlimit is hit, so callers degrade gracefully instead of growing
// without bound.
var (
	// ErrThreadLimit is EAGAIN from clone(2): the per-process thread cap.
	ErrThreadLimit = errors.New("kernel: thread limit reached (EAGAIN)")
	// ErrFDLimit is EMFILE from open(2): the per-process descriptor cap.
	ErrFDLimit = errors.New("kernel: file-descriptor limit reached (EMFILE)")
	// ErrTimerLimit is EAGAIN from a timed futex wait: the per-task
	// pending-timer cap.
	ErrTimerLimit = errors.New("kernel: pending-timer limit reached (EAGAIN)")
	// ErrFutexWaiterLimit is EAGAIN from futex(FUTEX_WAIT): the
	// waiters-per-word cap.
	ErrFutexWaiterLimit = errors.New("kernel: futex waiters-per-word limit reached (EAGAIN)")
)

// WaitClass says what kind of sleep a blocked task is in. The
// supervision plane uses it to build the wait-for graph: futex and join
// waits carry an edge to a possible holder, the rest are leaves.
type WaitClass int

// Wait classes.
const (
	WaitNone WaitClass = iota
	WaitFutex
	WaitJoin
	WaitChild
	WaitPipeRead
	WaitPipeWrite
	WaitSleep
)

// String implements fmt.Stringer.
func (c WaitClass) String() string {
	switch c {
	case WaitNone:
		return "none"
	case WaitFutex:
		return "futex"
	case WaitJoin:
		return "join"
	case WaitChild:
		return "child"
	case WaitPipeRead:
		return "pipe-read"
	case WaitPipeWrite:
		return "pipe-write"
	case WaitSleep:
		return "sleep"
	}
	return "?"
}

// admit fires task:admit for t at the admission site id (Val = n);
// a non-nil Err verdict rejects the admission. Callers fire it before
// creating any state, so a rejection leaves nothing behind.
func (k *Kernel) admit(t *Task, id probe.SiteID, n int) error {
	if !k.probes.Attached(probe.PTaskAdmit) {
		return nil
	}
	c := k.probes.Begin(probe.PTaskAdmit, k.engine.Now())
	c.SetSite(id)
	c.Task = t
	c.Val = int64(n)
	return k.probes.Fire(c).Err
}

// WaitClass reports what kind of sleep the task is in (WaitNone unless
// blocked). The annotations are live: a requeue updates WaitAddr.
func (t *Task) WaitClass() WaitClass { t.live(); return t.waitClass }

// WaitAddr reports the futex word a WaitFutex sleep is on.
func (t *Task) WaitAddr() uint64 { t.live(); return t.waitAddr }

// WaitTarget reports the task a WaitJoin sleep is joined on.
func (t *Task) WaitTarget() *Task { t.live(); return t.waitTarget }

// SetSupervisionTag attaches an opaque per-task record for the
// supervision plane (its wait-graph node); the kernel never reads it.
func (t *Task) SetSupervisionTag(v any) { t.live(); t.supTag = v }

// SupervisionTag returns the record attached by SetSupervisionTag.
func (t *Task) SupervisionTag() any { t.live(); return t.supTag }

// TryClone is Clone with graceful resource-limit failure: when a
// task:admit program rejects the "clone" admission (the supervisor's
// per-process thread cap), it returns that error (ErrThreadLimit)
// instead of spawning — before any cost is charged, as a real clone(2)
// failing with EAGAIN would. With nothing attached it never fails.
func (t *Task) TryClone(name string, flags CloneFlags, body TaskBody) (*Task, error) {
	t.live()
	return t.TryClonePinned(name, flags, -1, body)
}

// TryClonePinned is ClonePinned with graceful resource-limit failure.
func (t *Task) TryClonePinned(name string, flags CloneFlags, core int, body TaskBody) (*Task, error) {
	t.live()
	if err := t.kernel.admit(t, probe.SiteClone, 0); err != nil {
		return nil, err
	}
	return t.ClonePinned(name, flags, core, body), nil
}
