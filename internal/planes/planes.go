// Package planes installs the optional planes on a simulated kernel:
// the tracer, the scheduler policy, metrics, faults, the stock probes
// and the supervisor. Every harness and CLI builds them from one Options
// through Install and reads them back through Finish, so a new plane
// touches this package and the flag that sets it.
package planes

import (
	"fmt"
	"strings"

	"repro/internal/fault"
	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/probe"
	"repro/internal/schedpolicy"
	"repro/internal/sim"
	"repro/internal/supervise"
)

// Options selects a kernel's optional planes. The zero value selects
// none, and Install then attaches nothing and allocates nothing.
type Options struct {
	Policy string       // scheduler policy spec (schedpolicy.New); empty = stock dispatch
	Faults []fault.Spec // fault plane specs; none attaches no fault plane
	Probes []probe.Spec // stock probes, attached in order
	Seed   uint64       // seeds the fault plane and the supervisor's restart jitter
	Trace  *sim.Tracer  // records the engine's events
	// Metrics receives the kernel's metrics; Finish publishes the
	// end-of-run ones.
	Metrics *metrics.Registry
	// Supervise installs the stall and deadlock watchdog and restart
	// budgets; StallHorizon overrides the stall horizon (0 = default).
	Supervise    bool
	StallHorizon sim.Duration
}

// Planes are the planes Install attached to one kernel.
type Planes struct {
	k      *kernel.Kernel
	probes []*probe.Attachment
	Fault  *fault.Plane // nil without faults
	// Sup is nil without Supervise. Its watchdog's findings are the
	// caller's to judge: a chaos run fails on a wait-for cycle, the
	// explorer's deadlock scenario expects one.
	Sup *supervise.Plane
}

// Install attaches o's planes to k before any simulation runs on it:
// the tracer, a fresh policy instance, metrics, faults, probes, then the
// supervisor, which takes its counters from the kernel's registry.
// Where programs can veto one site, this order decides whose verdict
// wins. An invalid policy spec is the only error.
func Install(k *kernel.Kernel, o Options) (Planes, error) {
	if o.Trace != nil {
		k.Engine().SetTracer(o.Trace)
	}
	if o.Policy != "" {
		pol, err := schedpolicy.New(o.Policy)
		if err != nil {
			return Planes{}, err
		}
		k.SetSchedPolicy(pol)
	}
	if o.Metrics != nil {
		k.SetMetrics(o.Metrics)
	}
	p := Planes{k: k}
	if len(o.Faults) > 0 {
		p.Fault = fault.NewPlane(o.Seed, o.Faults)
		p.Fault.Attach(k.Probes())
	}
	p.probes = probe.AttachSpecs(k.Probes(), o.Probes)
	if o.Supervise {
		p.Sup = supervise.New(k, supervise.Config{StallHorizon: o.StallHorizon, Seed: o.Seed})
		p.Sup.Install()
	}
	return p, nil
}

// Report is what a run's planes say once it has ended.
type Report struct {
	Faults     []string // the fault plane's "<spec> hits=H fires=F" lines
	Injections uint64   // the faults injected
	// Probes holds a "<spec>: <summary>" line per reporting probe, each
	// followed by "CHECK FAILED: <error>" when its check fails.
	Probes []string
	Err    error // the first failing probe check
}

// Finish publishes the end-of-run metrics, the kernel's and then the
// fault plane's, and returns the Report. Call it once the engine has
// drained.
func (p Planes) Finish() Report {
	var r Report
	p.k.FinalizeMetrics()
	if p.Fault != nil {
		p.Fault.PublishMetrics(p.k.Metrics())
		r.Faults, r.Injections = p.Fault.Stats(), p.Fault.Injections()
	}
	for _, a := range p.probes {
		if a.Report != nil {
			r.Probes = append(r.Probes, a.Report())
		}
		if a.Check == nil {
			continue
		}
		if err := a.Check(); err != nil {
			r.Probes = append(r.Probes, fmt.Sprintf("CHECK FAILED: %v", err))
			if r.Err == nil {
				r.Err = err
			}
		}
	}
	return r
}

// Flags renders o as the ulpsim flags that select it, each with a
// leading space, for the repro lines ulpsim prints. Nil Faults render
// nothing (the mode's default), empty ones an empty -faults (no faults).
// The caller prints -seed; metrics and traces do not change a run.
func (o Options) Flags() string {
	var b strings.Builder
	if o.Faults != nil {
		fmt.Fprintf(&b, " -faults '%s'", probe.SpecsString(o.Faults))
	}
	if o.Supervise {
		b.WriteString(" -supervise")
		if o.StallHorizon > 0 {
			fmt.Fprintf(&b, " -stall-horizon %g", o.StallHorizon.Microseconds())
		}
	}
	if len(o.Probes) > 0 {
		fmt.Fprintf(&b, " -probe '%s'", probe.SpecsString(o.Probes))
	}
	if o.Policy != "" {
		fmt.Fprintf(&b, " -sched-policy '%s'", o.Policy)
	}
	return b.String()
}
