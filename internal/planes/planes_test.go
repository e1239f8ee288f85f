package planes

import (
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/fault"
	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/probe"
	"repro/internal/sim"
)

// TestZeroOptionsInstallNothing: with every plane off, Install attaches
// no program, installs no policy, registry or tracer, and allocates
// nothing, nor does Finish. The paper experiments build thousands of
// kernels this way.
func TestZeroOptionsInstallNothing(t *testing.T) {
	k := kernel.New(sim.New(), arch.Wallaby())
	p, err := Install(k, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(k.Probes().Programs()); n != 0 {
		t.Errorf("%d programs attached", n)
	}
	if k.SchedPolicy() != nil || k.Metrics() != nil || k.Engine().Tracer() != nil {
		t.Errorf("policy %v, registry %v, tracer %v installed", k.SchedPolicy(), k.Metrics(), k.Engine().Tracer())
	}
	if p.Fault != nil || p.Sup != nil {
		t.Errorf("planes %+v", p)
	}
	if r := p.Finish(); !reflect.DeepEqual(r, Report{}) {
		t.Errorf("Finish = %+v, want an empty report", r)
	}
	if n := testing.AllocsPerRun(100, func() {
		p, _ := Install(k, Options{})
		p.Finish()
	}); n != 0 {
		t.Errorf("Install and Finish with zero Options allocate %v times", n)
	}
}

// TestInstallOrder pins the attach order: the tracer, the policy,
// metrics, faults, probes, then the supervisor. Where several programs
// can veto one site, this order decides whose verdict wins.
func TestInstallOrder(t *testing.T) {
	faults, err := fault.ParseSpecs("open:nth=1")
	if err != nil {
		t.Fatal(err)
	}
	probes, err := probe.ParseSpecs("count:points=syscall:enter;slo:p99_us=5")
	if err != nil {
		t.Fatal(err)
	}
	k := kernel.New(sim.New(), arch.Wallaby())
	tr := sim.NewTracer(8)
	p, err := Install(k, Options{Policy: "fifo", Faults: faults, Probes: probes,
		Supervise: true, Seed: 3, Metrics: metrics.NewRegistry(), Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, pr := range k.Probes().Programs() {
		names = append(names, pr.Name())
	}
	want := []string{"metrics", "fault", "count:points=syscall:enter", "slo:p99_us=5", "supervise"}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("programs attached as %q, want %q", names, want)
	}
	if k.Engine().Tracer() != tr || k.SchedPolicy() == nil || k.SchedPolicy().Name() != "fifo" {
		t.Errorf("tracer %v, policy %v", k.Engine().Tracer(), k.SchedPolicy())
	}
	if p.Fault == nil || p.Sup == nil {
		t.Errorf("planes %+v", p)
	}
	if _, err := Install(kernel.New(sim.New(), arch.Wallaby()), Options{Policy: "nosuch"}); err == nil {
		t.Error("an invalid policy spec installed")
	}
}
