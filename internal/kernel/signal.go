package kernel

import "repro/internal/probe"

// Signal numbers (the subset the simulation uses).
const (
	SIGINT  = 2
	SIGKILL = 9
	SIGUSR1 = 10
	SIGUSR2 = 12
	SIGTERM = 15
)

// SigHandler is a registered signal handler. It runs in the context of
// the receiving kernel task.
type SigHandler func(t *Task, sig int)

// SignalState is the per-task (or shared, with CloneSighand) signal
// disposition: handler table, blocked mask and pending signals. The
// handler map is allocated lazily on the first Sigaction — most tasks
// never register a handler, and at a million tasks an eager map per
// task (and per fork-style Clone copy) is pure footprint.
//
// Each delivery fires signal:deliver with the receiving task — *which
// kernel task* received a signal is the paper's §VII caveat: with
// fcontext-style switching "if one tries to send a signal to a UC, then
// the signal is delivered to the scheduling KC". A program attached
// there records deliveries; the kernel keeps no log.
type SignalState struct {
	handlers map[int]SigHandler // nil until a handler is registered
	mask     uint64             // bit i+1 set => signal i+1 blocked
	pending  []int
}

// NewSignalState creates a default disposition (no handlers, empty
// mask).
func NewSignalState() *SignalState { return &SignalState{} }

// Copy duplicates the disposition (fork-style).
func (s *SignalState) Copy() *SignalState {
	cp := NewSignalState()
	if s.handlers != nil {
		cp.handlers = make(map[int]SigHandler, len(s.handlers))
		for sig, h := range s.handlers {
			cp.handlers[sig] = h
		}
	}
	cp.mask = s.mask
	return cp
}

func sigBit(sig int) uint64 { return 1 << uint(sig) }

// Blocked reports whether sig is in the blocked mask.
func (s *SignalState) Blocked(sig int) bool { return s.mask&sigBit(sig) != 0 }

// Signals returns the signal state of the task.
func (t *Task) Signals() *SignalState { t.live(); return t.sig }

// Sigaction registers a handler for sig in the calling task's handler
// table.
func (t *Task) Sigaction(sig int, h SigHandler) {
	t.live()
	k := t.kernel
	fr := k.sysEnter(t, probe.SiteSigaction)
	t.Charge(k.machine.Costs.SyscallEntry)
	if t.sig.handlers == nil {
		t.sig.handlers = make(map[int]SigHandler)
	}
	t.sig.handlers[sig] = h
	k.sysExit(t, fr)
}

// Sigprocmask replaces the calling task's blocked-signal mask and
// returns the previous one. The cost is the paper's objection to
// ucontext: saving/restoring the mask on every context switch "adds
// non-negligible overhead".
func (t *Task) Sigprocmask(mask uint64) uint64 {
	t.live()
	k := t.kernel
	fr := k.sysEnter(t, probe.SiteSigprocmask)
	t.Charge(k.machine.Costs.SigmaskSwitch)
	old := t.sig.mask
	t.sig.mask = mask
	// Delivering newly unblocked pending signals.
	var still []int
	for _, sig := range t.sig.pending {
		if t.sig.Blocked(sig) {
			still = append(still, sig)
			continue
		}
		t.kernel.deliver(t, sig)
	}
	t.sig.pending = still
	k.sysExit(t, fr)
	return old
}

// SigmaskRaw reads the mask without a system-call (for the runtime's own
// bookkeeping).
func (t *Task) SigmaskRaw() uint64 { t.live(); return t.sig.mask }

// SetSigmaskRaw writes the mask without charging (used when the ULP
// runtime models per-UC masks itself).
func (t *Task) SetSigmaskRaw(mask uint64) { t.live(); t.sig.mask = mask }

// Kill sends sig to the task with the given kernel PID, as kill(2) from
// the calling task. SIGKILL is not catchable or blockable.
func (t *Task) Kill(pid, sig int) error {
	t.live()
	k := t.kernel
	fr := k.sysEnter(t, probe.SiteKill)
	t.Charge(k.machine.Costs.SyscallEntry)
	target := k.tasks[pid]
	if target == nil {
		k.sysExit(t, fr)
		return ErrBadPID
	}
	k.SendSignal(target, sig)
	k.sysExit(t, fr)
	return nil
}

// SendSignal delivers sig to target directly (used by Kill and by
// "terminal" senders with no sending task). Blocked signals are queued
// pending; others are delivered immediately, interrupting interruptible
// sleeps.
func (k *Kernel) SendSignal(target *Task, sig int) {
	if sig != SIGKILL && target.sig.Blocked(sig) {
		target.sig.pending = append(target.sig.pending, sig)
		return
	}
	k.deliver(target, sig)
	k.interrupt(target, k.machine.Costs.FutexWakeLatency)
}

func (k *Kernel) deliver(target *Task, sig int) {
	h := target.sig.handlers[sig]
	if k.probes.Attached(probe.PSignal) {
		c := k.probes.Begin(probe.PSignal, k.engine.Now())
		c.Task = target
		c.Val = int64(sig)
		k.probes.Fire(c)
	}
	if k.Tracing() {
		k.Emit(target, "signal", "signal %d -> %s (handled=%v)", sig, pidString(target), h != nil)
	}
	if h != nil {
		h(target, sig)
	}
}
