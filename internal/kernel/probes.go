package kernel

import (
	"repro/internal/metrics"
	"repro/internal/probe"
)

// The kernel owns one stock probe program, metrics, attached by
// SetMetrics: its registry handles are resolved once and updated in
// place, so the metrics-on syscall path stays allocation-free.
//
// Every other plane is a program its own package attaches through
// Probes(): the fault plane at fault:site / fault:armed, the
// consistency audit at syscall:enter, the timeline at sched:stop and
// the supervisor at the task:* points. With nothing attached every
// site costs one length check.

// Probes returns the kernel's probe registry (never nil). User programs
// attach here; the registry is consulted at every instrumented site.
func (k *Kernel) Probes() *probe.Registry { return k.probes }

// noteSwitch fires sched:switch for a kernel-level context switch onto
// the dispatched task (scheduleNext and the switching half of
// SchedYield).
func (k *Kernel) noteSwitch(t *Task) {
	if !k.probes.Attached(probe.PSchedSwitch) {
		return
	}
	c := k.probes.Begin(probe.PSchedSwitch, k.engine.Now())
	c.Task = t
	k.probes.Fire(c)
}

// RestartVerdict consults task:restart for the entity named name
// ("kc.<name>", "aio.<owner>"), on behalf of task t, reporting failures
// new failures (1 when it was fault-killed, 0 to register it): Drop
// quarantines it, a positive Delay grants a restart after that backoff,
// and the zero verdict (nothing attached, or only observers) leaves the
// caller's unsupervised default.
func (k *Kernel) RestartVerdict(t *Task, name string, failures int) probe.Verdict {
	if !k.probes.Attached(probe.PTaskRestart) {
		return probe.Verdict{}
	}
	c := k.probes.Begin(probe.PTaskRestart, k.engine.Now())
	c.Site = name
	c.Val = int64(failures)
	if t != nil {
		c.Task = t
	}
	return k.probes.Fire(c)
}

// stockMetricsPoints are the attach points the metrics probe watches.
var stockMetricsPoints = []probe.Point{
	probe.PSyscallExit, probe.PSchedDispatch, probe.PSchedSwitch,
	probe.PSchedULT, probe.PSchedSteal,
	probe.PFutexWait, probe.PFutexWake, probe.PFutexWoken,
	probe.PFutexRequeue, probe.PFutexTimeout, probe.PFutexTable,
	probe.PTLSLoad, probe.PSignal, probe.PFaultFired,
	probe.PCouple, probe.PDecouple,
}

// stockMetrics holds the registry handles previously cached on the
// Kernel, resolved once at attach so every fire updates in place (no
// map traffic on the syscall path).
type stockMetrics struct {
	reg *metrics.Registry
	// sysLat holds each syscall's latency histogram from its first exit
	// on, indexed by its site ID.
	sysLat [probe.NumSites]*metrics.Histogram

	runq   *metrics.Histogram
	ctxKLT *metrics.Counter

	fxWaits, fxWakes, fxWoken, fxLost  *metrics.Counter
	fxSpurious, fxTimeouts, fxRequeues *metrics.Counter
	tableSize                          *metrics.Gauge
	tls, tlsCost, signals, faults      *metrics.Counter
	ult, steals                        *metrics.Counter
	couple, decouple                   *metrics.Histogram
}

func newStockMetrics(k *Kernel, reg *metrics.Registry) *stockMetrics {
	m := &stockMetrics{
		reg:    reg,
		runq:   reg.Histogram("kernel.runq.depth"),
		ctxKLT: reg.Counter("kernel.ctx_switch.klt"),
	}
	m.fxWaits = reg.Counter("kernel.futex.waits")
	m.fxWakes = reg.Counter("kernel.futex.wake_calls")
	m.fxWoken = reg.Counter("kernel.futex.woken")
	m.fxLost = reg.Counter("kernel.futex.lost_wakes")
	m.fxSpurious = reg.Counter("kernel.futex.spurious")
	m.fxTimeouts = reg.Counter("kernel.futex.timeouts")
	m.fxRequeues = reg.Counter("kernel.futex.requeued")
	// Live futex-table entries (words with sleepers); its Max is the
	// high-water mark, and hygiene demands Value 0 at quiescence.
	m.tableSize = reg.Gauge("kernel.futex.table_size")
	// TLS-switch cost attribution: the mechanism is a machine property
	// (x86_64 arch_prctl syscall vs AArch64 user-mode tpidr_el0), so the
	// counter name carries it (the Table III/IV ablation axis).
	mech := "arch_prctl"
	if k.machine.TLSUserAccessible {
		mech = "tpidr_el0"
	}
	m.tls = reg.Counter("kernel.tls_switch." + mech)
	m.tlsCost = reg.Counter("kernel.tls_switch.cost_ps")
	m.signals = reg.Counter("kernel.signals.delivered")
	m.faults = reg.Counter("kernel.faults.injected")
	// BLT-plane handles (fired from internal/blt through the same
	// registry).
	m.ult = reg.Counter("blt.ctx_switch.ult")
	m.steals = reg.Counter("blt.steals")
	m.couple = reg.Histogram("blt.couple.ps")
	m.decouple = reg.Histogram("blt.decouple.ps")
	return m
}

// hist returns the latency histogram for system-call id.
func (m *stockMetrics) hist(id probe.SiteID) *metrics.Histogram {
	h := m.sysLat[id]
	if h == nil {
		h = m.reg.Histogram("kernel.syscall.ps." + id.String())
		m.sysLat[id] = h
	}
	return h
}

func (m *stockMetrics) fire(c *probe.Ctx) probe.Verdict {
	switch c.Point {
	case probe.PSyscallExit:
		m.hist(c.ID).Observe(int64(c.Dur))
	case probe.PSchedDispatch:
		m.runq.Observe(c.Val)
	case probe.PSchedSwitch:
		m.ctxKLT.Inc()
	case probe.PSchedULT:
		m.ult.Inc()
	case probe.PSchedSteal:
		m.steals.Inc()
	case probe.PFutexWait:
		m.fxWaits.Inc()
	case probe.PFutexWake:
		m.fxWakes.Inc()
	case probe.PFutexWoken:
		m.fxWoken.Add(uint64(c.Val))
	case probe.PFutexRequeue:
		m.fxRequeues.Add(uint64(c.Val))
	case probe.PFutexTimeout:
		m.fxTimeouts.Inc()
	case probe.PFutexTable:
		m.tableSize.Set(c.Val)
	case probe.PTLSLoad:
		m.tls.Inc()
		m.tlsCost.Add(uint64(c.Dur))
	case probe.PSignal:
		m.signals.Inc()
	case probe.PFaultFired:
		switch {
		case c.Err != nil:
			// A syscall-site injection (the only fires carrying an error).
			m.faults.Inc()
		case c.ID == probe.SiteFutexSpurious:
			m.fxSpurious.Inc()
		case c.ID == probe.SiteFutexLostWake:
			m.fxLost.Inc()
		}
	case probe.PCouple:
		m.couple.Observe(int64(c.Dur))
	case probe.PDecouple:
		m.decouple.Observe(int64(c.Dur))
	}
	return probe.Verdict{}
}
