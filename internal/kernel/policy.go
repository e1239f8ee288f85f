package kernel

// SchedPolicy customises the kernel dispatch plane, sched_ext-style: the
// kernel keeps owning the mechanism (run queues, dispatch latencies,
// context-switch accounting, probes) while a policy object overrides the
// three decisions the hard-coded scheduler used to make — core placement
// at wake, queue position at enqueue, and victim selection at dispatch.
//
// Every hook may decline by returning its zero answer (nil core, false,
// nil task), in which case the built-in FIFO behaviour runs; a policy
// that declines everything is byte-identical to no policy at all, which
// is how the schedpolicy package's FIFO policy proves the refactor safe.
//
// Invariants a policy must uphold (the explorer's oracles check the
// consequences on every explored schedule):
//
//   - Enqueue, when it returns true, must have placed t on c's run queue
//     (position is the policy's choice; membership is not). The kernel's
//     idle checks and QueueLen read that queue directly.
//   - PickNext, when it returns non-nil, must have *removed* the task
//     from c's run queue (use Core.RunqRemoveAt), and may only return a
//     task from that queue. Returning a task still queued, or one queued
//     elsewhere, double-dispatches it.
//   - Policies decide placement and order, never whether a task runs:
//     suppressing a runnable task indefinitely shows up as a deadlock or
//     conservation failure in the oracles.
//   - Pinned tasks never reach PickCore; affinity outranks policy.
//
// Hooks run on the scheduler hot path and must not allocate: the kernel
// alloc tests pin the policy-off path at zero allocations, and the CI
// byte-identity job runs the FIFO policy through the same pins.
type SchedPolicy interface {
	// Name identifies the policy in diagnostics and repro commands.
	Name() string
	// PickCore chooses the core a waking unpinned task is placed on.
	// nil falls back to the built-in choice (first fully idle core,
	// else shortest queue, ties to the lowest index).
	PickCore(k *Kernel, t *Task) *Core
	// Enqueue places a ready task on core c's run queue. false falls
	// back to the built-in FIFO push.
	Enqueue(c *Core, t *Task) bool
	// PickNext removes and returns the next task to dispatch from c's
	// run queue. nil falls back to the built-in FIFO pop (with an empty
	// queue the core goes idle either way).
	PickNext(c *Core) *Task
}

// SetSchedPolicy installs a scheduler policy (nil restores the built-in
// FIFO dispatch plane). Install before the simulation runs: switching
// policies mid-run is legal but changes the schedule from that point on,
// and a BLT pool keeps the ULT half (blt.ULTPolicy) it took when created.
func (k *Kernel) SetSchedPolicy(p SchedPolicy) { k.policy = p }

// SchedPolicy returns the installed policy, or nil.
func (k *Kernel) SchedPolicy() SchedPolicy { return k.policy }

// pickNext consults the policy for the core's next task, falling back to
// the FIFO pop.
func (k *Kernel) pickNext(c *Core) *Task {
	if k.policy != nil {
		if t := k.policy.PickNext(c); t != nil {
			return t
		}
	}
	return c.pop()
}

// enqueue places a ready task on c's run queue through the policy,
// falling back to the FIFO push.
func (k *Kernel) enqueue(c *Core, t *Task) {
	if k.policy == nil || !k.policy.Enqueue(c, t) {
		c.push(t)
	}
}
