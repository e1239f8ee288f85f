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
// seeded plane in internal/fault attaches there). A site is a row of the
// probe site table (probe.SiteID), so lower layers need not import
// internal/fault. The sites the runtime stack fires, and the verdict
// each applies:
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

// faultCtx leases the context of a fault:site, fault:armed or
// fault:fired fire (p) at site id on behalf of t, which may be nil at a
// site with no task. Every fault fire leases through here. The caller
// checks Attached(p) first: with the check inside, the helper would not
// inline (cost 82 against the inliner's budget of 80), so an unattached
// site would pay a call on top of its one length check.
func (k *Kernel) faultCtx(p probe.Point, t *Task, id probe.SiteID) *probe.Ctx {
	c := k.probes.Begin(p, k.engine.Now())
	c.SetSite(id)
	if t != nil {
		c.Task = t
	}
	return c
}

// faultSyscall consults fault:site at a syscall site; nil when nothing
// is attached or no program vetoes.
func (k *Kernel) faultSyscall(t *Task, id probe.SiteID) error {
	if !k.probes.Attached(probe.PFaultSite) {
		return nil
	}
	err := k.probes.Fire(k.faultCtx(probe.PFaultSite, t, id)).Err
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
	c := k.faultCtx(probe.PFaultSite, t, probe.SiteFSSlow)
	c.Dur = cost
	if d := k.probes.Fire(c).Delay; d > 0 {
		if cost > math.MaxInt64-d {
			return math.MaxInt64
		}
		return cost + d
	}
	return cost
}

// FaultShouldDie consults fault:site at a kill site (SiteKCKill,
// SiteSchedKill, SiteAIOHelperKill): true means the task visiting the
// site dies now. Any program attached to fault:site can kill.
func (k *Kernel) FaultShouldDie(t *Task, id probe.SiteID) bool {
	return k.probes.Attached(probe.PFaultSite) &&
		k.probes.Fire(k.faultCtx(probe.PFaultSite, t, id)).Drop
}

// FaultDelay consults fault:site for extra latency at site id
// (SiteSchedDelay); the caller charges the returned duration.
func (k *Kernel) FaultDelay(t *Task, id probe.SiteID) sim.Duration {
	if !k.probes.Attached(probe.PFaultSite) {
		return 0
	}
	return k.probes.Fire(k.faultCtx(probe.PFaultSite, t, id)).Delay
}

// faultArmed consults fault:armed: whether any program could ever fire
// for (task, site), without consuming randomness. FutexSleep uses it to
// decide whether to arm a timed wait.
func (k *Kernel) faultArmed(t *Task, id probe.SiteID) bool {
	return k.probes.Attached(probe.PFaultArmed) &&
		k.probes.Fire(k.faultCtx(probe.PFaultArmed, t, id)).Drop
}

// faultFired announces an injection that fired: it fires fault:fired
// with the site and the injected error (syscall sites), which the stock
// metrics program counts. Each caller records its "fault" instant
// first, under a Tracing() check, so that an untraced injection boxes
// no trace arguments.
func (k *Kernel) faultFired(t *Task, id probe.SiteID, err error) {
	if k.probes.Attached(probe.PFaultFired) {
		c := k.faultCtx(probe.PFaultFired, t, id)
		c.Err = err
		k.probes.Fire(c)
	}
}
