package kernel

import (
	"errors"
	"math"

	"repro/internal/probe"
	"repro/internal/sim"
)

// Errors injectable by a fault plane (and returned by the timed futex
// wait). They model the transient errno values a real kernel hands back
// under adversity; runtime layers are expected to retry or degrade, never
// to panic.
var (
	// ErrTryAgain is EAGAIN: the resource is temporarily unavailable.
	ErrTryAgain = errors.New("kernel: resource temporarily unavailable (EAGAIN)")
	// ErrNoSpace is ENOSPC: the injected "device" ran out of space. It is
	// not transient — retrying does not help.
	ErrNoSpace = errors.New("kernel: no space left on device (ENOSPC)")
	// ErrTimedOut is ETIMEDOUT from FutexWaitTimeout.
	ErrTimedOut = errors.New("kernel: futex wait timed out (ETIMEDOUT)")
)

// Fault injection is a probe program at fault:site / fault:armed (the
// seeded plane in internal/fault attaches there). The sites the runtime
// stack fires, by their probe.SiteID (so lower layers need not import
// internal/fault):
//
//	open, write, read, futex_wait  — transient syscall errors (Err)
//	futex_spurious  — a futex wait returns EAGAIN without sleeping (Drop)
//	futex_lost_wake — a futex wake is dropped; Waiter = its target (Drop)
//	kc_kill         — an idle original KC dies in its trampoline (Drop)
//	sched_kill      — a scheduler KC dies between dispatches (Drop)
//	aio_helper_kill — the AIO helper thread dies between requests (Drop)
//	sched_delay     — extra scheduler latency before a UC dispatch (Delay)
//	fs_slow         — extra file I/O time; Dur = the unscaled cost (Delay)
//
// Every fire happens at a deterministic point in virtual time, so a
// program driven by a seeded RNG reproduces the same fault schedule for
// the same seed. With nothing attached each site costs one length check.

// faultSyscall consults fault:site at a syscall site; nil when nothing
// is attached or no program vetoes.
func (k *Kernel) faultSyscall(t *Task, id probe.SiteID) error {
	if !k.probes.Attached(probe.PFaultSite) {
		return nil
	}
	c := k.probes.Begin(probe.PFaultSite, k.engine.Now())
	c.SetSite(id)
	c.Task = t
	err := k.probes.Fire(c).Err
	if err != nil {
		if k.Tracing() {
			k.Emit(t, "fault", "%s: %v", id, err)
		}
		k.faultFired(t, id, err)
	}
	return err
}

// faultIOScale consults fs_slow for an I/O of the given cost (Dur) and
// returns the cost plus the Delay verdict (the fs-degradation extra),
// saturating at the longest representable duration.
func (k *Kernel) faultIOScale(t *Task, cost sim.Duration) sim.Duration {
	if !k.probes.Attached(probe.PFaultSite) {
		return cost
	}
	c := k.probes.Begin(probe.PFaultSite, k.engine.Now())
	c.SetSite(probe.SiteFSSlow)
	c.Task = t
	c.Dur = cost
	if d := k.probes.Fire(c).Delay; d > 0 {
		if cost > math.MaxInt64-d {
			return math.MaxInt64
		}
		return cost + d
	}
	return cost
}
