package kernel

// SchedPolicy customises the kernel dispatch plane, sched_ext-style: the
// kernel keeps owning the mechanism (run queues, dispatch latencies,
// context-switch accounting, probes) while a policy object decides one
// thing the hard-coded scheduler used to: the core a waking task is
// placed on. Run queues stay FIFO.
//
// PickCore may decline by returning nil, in which case the built-in
// placement runs; a policy that declines is byte-identical to no policy
// at all, which is how the schedpolicy package's FIFO policy proves the
// plane safe.
//
// Invariants a policy must uphold (the explorer's oracles check the
// consequences on every explored schedule):
//
//   - Policies decide placement, never whether a task runs: suppressing
//     a runnable task indefinitely shows up as a deadlock or
//     conservation failure in the oracles.
//   - Pinned tasks never reach PickCore; affinity outranks policy.
//
// PickCore runs on the scheduler hot path and must not allocate: the
// kernel alloc tests pin the policy-off path at zero allocations, and
// the CI byte-identity job runs the FIFO policy through the same pins.
type SchedPolicy interface {
	// Name identifies the policy in diagnostics and repro commands.
	Name() string
	// PickCore chooses the core a waking unpinned task is placed on.
	// nil falls back to the built-in choice (first fully idle core,
	// else shortest queue, ties to the lowest index).
	PickCore(k *Kernel, t *Task) *Core
}

// SetSchedPolicy installs a scheduler policy (nil restores the built-in
// FIFO dispatch plane). Install before the simulation runs: switching
// policies mid-run is legal but changes the schedule from that point on,
// and a BLT pool keeps the ULT half (blt.ULTPolicy) it took when created.
func (k *Kernel) SetSchedPolicy(p SchedPolicy) { k.policy = p }

// SchedPolicy returns the installed policy, or nil.
func (k *Kernel) SchedPolicy() SchedPolicy { return k.policy }
