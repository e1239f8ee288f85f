package kernel

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
	case WaitSleep:
		return "sleep"
	}
	return "?"
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
