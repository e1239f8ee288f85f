// Package bench contains the evaluation harness: one generator per table
// and figure of the paper's §VI, plus the §VII ablations. Each experiment
// stands up a fresh simulated machine, runs the workload with a warm-up
// loop followed by a measurement loop, repeats the whole run and keeps
// the minimum — the paper's own protocol ("all values are the minimum
// ones of ten runs"). The simulation is deterministic, so repeats serve
// as a consistency check rather than noise reduction.
package bench

import (
	"fmt"
	"sync"

	"repro/internal/arch"
	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/planes"
	"repro/internal/sim"
)

// Runs is the number of repetitions per measurement (paper: 10).
var Runs = 3

// Planes are the optional planes every benchmark kernel installs
// (ulpbench -sched-policy and -probe, the policy validated by the CLI);
// a run may add its own, as the chaos-at-scale rows do.
var Planes planes.Options

// Metrics, when non-nil, aggregates the metric registries of every
// simulated kernel the harness builds (ulpbench -metrics-json). Each run
// gets its own private registry — the parallel sweeps share nothing hot —
// and finish folds it in here under metricsMu. Merge is commutative, so
// the aggregate is byte-identical at any -parallel width. With metrics
// off no run gets a registry, so the measured workloads stay untouched.
var Metrics *metrics.Registry

var metricsMu sync.Mutex

// newKernel builds an engine and a kernel for machine m and installs o:
// Planes plus whatever the run adds, and a fresh registry when Metrics
// is set and the run brings none. The policy spec was validated at
// flag-parse time, so a parse failure here is a programming error.
func newKernel(m *arch.Machine, o planes.Options) (*kernel.Kernel, planes.Planes) {
	if o.Metrics == nil && Metrics != nil {
		o.Metrics = metrics.NewRegistry()
	}
	k := kernel.New(sim.New(), m)
	p, err := planes.Install(k, o)
	if err != nil {
		panic(fmt.Sprintf("bench: invalid sched policy %q: %v", o.Policy, err))
	}
	return k, p
}

// finish ends a run newKernel built, once its engine has drained with
// err: it publishes the run's end-of-run metrics, folds its registry
// into Metrics, and returns err or else the verdict of its probe checks.
func finish(k *kernel.Kernel, p planes.Planes, err error) error {
	r := p.Finish()
	if Metrics != nil {
		metricsMu.Lock()
		Metrics.Merge(k.Metrics())
		metricsMu.Unlock()
	}
	if err != nil {
		return err
	}
	return r.Err
}

// RunKernel builds a benchmark kernel for machine m, starts body as the
// initial task, and drives the simulation to completion.
func RunKernel(m *arch.Machine, body func(k *kernel.Kernel, root *kernel.Task)) error {
	return runKernel(m, Planes, func(k *kernel.Kernel, root *kernel.Task, _ planes.Planes) { body(k, root) })
}

// runKernel is RunKernel with the run's own planes o, which body sees
// installed.
func runKernel(m *arch.Machine, o planes.Options, body func(k *kernel.Kernel, root *kernel.Task, p planes.Planes)) error {
	k, p := newKernel(m, o)
	root := k.NewTask("bench-root", k.NewAddressSpace(), func(t *kernel.Task) int {
		body(k, t, p)
		return 0
	})
	k.Start(root, 0)
	return finish(k, p, k.Engine().Run())
}

// timeLoop runs op(i) for i in [0, warm+n) and returns the mean virtual
// time of the last n calls: the warm-up-then-measure loop of every
// micro-benchmark.
func timeLoop(e *sim.Engine, warm, n int, op func(i int)) sim.Duration {
	var t0 sim.Time
	for i := 0; i < warm+n; i++ {
		if i == warm {
			t0 = e.Now()
		}
		op(i)
	}
	return sim.Duration(float64(e.Now().Sub(t0)) / float64(n))
}

// MinOf repeats f Runs times and returns the smallest result.
func MinOf(f func() (sim.Duration, error)) (sim.Duration, error) {
	best := sim.Duration(0)
	for i := 0; i < Runs; i++ {
		d, err := f()
		if err != nil {
			return 0, err
		}
		if i == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

// Measurement is one primitive-cost result: a time, plus a cycle count
// on machines with a cycle counter (the paper prints cycles only for
// Wallaby/RDTSC).
type Measurement struct {
	Machine *arch.Machine
	Name    string
	Time    sim.Duration
	HasCyc  bool
	Cycles  float64
}

// NewMeasurement derives the cycle column from the machine model.
func NewMeasurement(m *arch.Machine, name string, d sim.Duration) Measurement {
	return Measurement{
		Machine: m, Name: name, Time: d,
		HasCyc: m.HasCycleCounter,
		Cycles: m.Cycles(d),
	}
}

// TimeSec renders the time in the paper's scientific-notation seconds.
func (m Measurement) TimeSec() string {
	return fmt.Sprintf("%.2E", m.Time.Seconds())
}

// CyclesStr renders the cycle column ("-" when unavailable).
func (m Measurement) CyclesStr() string {
	if !m.HasCyc {
		return "-"
	}
	return fmt.Sprintf("%.0f", m.Cycles)
}

// Point is one (x, y) sample of a figure series.
type Point struct {
	X float64 // write-buffer size in bytes for Figs. 7/8
	Y float64 // slowdown ratio or overlap percentage
}

// Series is one labeled curve of a figure.
type Series struct {
	Machine *arch.Machine
	Label   string
	Points  []Point
}

// Fig7Sizes are the write-buffer sizes swept in Fig. 7 (64 B .. 1 MiB,
// covering the paper's crossover region on Albireo and the flattening
// of the Albireo ULP curves at large sizes).
func Fig7Sizes() []int {
	var sizes []int
	for s := 64; s <= 1<<20; s *= 4 {
		sizes = append(sizes, s)
	}
	return sizes
}

// Fig8Sizes are the write-buffer sizes swept in Fig. 8 (64 B .. 32 KiB —
// the small-transfer range where overlap is limited by mechanism
// overheads rather than by the copy itself).
func Fig8Sizes() []int {
	return []int{64, 256, 1024, 4096, 16384, 32768}
}

// IMBOverlap computes the overlap percentage the way the Intel MPI
// Benchmarks do (the method the paper cites for Fig. 8):
//
//	overlap = 100 * max(0, min(1, (t_pure + t_cpu - t_ovrl) / min(t_pure, t_cpu)))
//
// where t_pure is the blocking operation alone, t_cpu the computation
// alone, and t_ovrl the combined (overlapped) execution.
func IMBOverlap(tPure, tCPU, tOvrl sim.Duration) float64 {
	den := tPure
	if tCPU < den {
		den = tCPU
	}
	if den <= 0 {
		return 0
	}
	ratio := float64(tPure+tCPU-tOvrl) / float64(den)
	if ratio < 0 {
		ratio = 0
	}
	if ratio > 1 {
		ratio = 1
	}
	return 100 * ratio
}
