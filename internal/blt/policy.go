package blt

// ULTPolicy customises the user-level half of the scheduling plane: the
// order a scheduler BLT drains its ready queue, the order it scans steal
// victims, and a notification at its idle edge. It is the
// user-level counterpart of kernel.SchedPolicy — one policy object
// implements both (see internal/schedpolicy) and is installed on the
// kernel; NewPool takes this half from the kernel's installed policy.
//
// As with the kernel interface, every hook may decline (index ≤ 0, nil
// slice) and the built-in FIFO/round-robin behaviour runs; a policy that
// declines everything is byte-identical to no policy at all. Hooks
// run on the dispatch hot path between UC switches: they must not block
// and should not allocate in steady state.
//
// Policies reorder ready work; they never invent or suppress it. A
// PickReady index is only honoured inside [0, QueueLen()), a StealOrder
// entry only when it names a live peer with queued work — the scheduler
// re-applies its own emptiness re-checks and charges around every hook,
// so the Table I race windows and the explorer's conservation oracles
// are unaffected by policy choice.
type ULTPolicy interface {
	// Name identifies the policy in diagnostics and repro commands.
	Name() string
	// PickReady returns the ready-queue index of the BLT the scheduler
	// should run next (0 = queue head). Called only with a non-empty
	// queue; out-of-range indices fall back to the FIFO head.
	PickReady(s *Scheduler) int
	// StealOrder appends victim scheduler indices to buf in preference
	// order and returns it; nil falls back to the built-in round-robin
	// scan from s.Index()+1. Entries naming s itself or out-of-range
	// indices are skipped.
	StealOrder(s *Scheduler, buf []int) []int
	// OnIdle fires when s found no local or stolen work and is about to
	// idle per the pool policy.
	OnIdle(s *Scheduler)
}
