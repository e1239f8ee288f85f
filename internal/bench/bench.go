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

	"repro/internal/arch"
	"repro/internal/kernel"
	"repro/internal/schedpolicy"
	"repro/internal/sim"
)

// Runs is the number of repetitions per measurement (paper: 10).
var Runs = 3

// SchedPolicy selects the scheduler policy for every benchmark kernel
// (empty = stock dispatch). The CLI validates the spec before setting
// this; a fresh policy instance is parsed per kernel so stateful
// policies (cosched, tenant) never leak pass/gang state across runs.
var SchedPolicy string

// applyPolicy installs the selected policy on k, before any BLT pool is
// built on it. The spec was validated at flag-parse time, so a parse
// failure here is a programming error.
func applyPolicy(k *kernel.Kernel) {
	if err := schedpolicy.Install(k, SchedPolicy); err != nil {
		panic(fmt.Sprintf("bench: invalid sched policy %q: %v", SchedPolicy, err))
	}
}

// RunKernel builds an engine and kernel for machine m, starts body as
// the initial task, and drives the simulation to completion.
func RunKernel(m *arch.Machine, body func(k *kernel.Kernel, root *kernel.Task)) error {
	e := sim.New()
	k := kernel.New(e, m)
	applyPolicy(k)
	finish := instrument(k)
	root := k.NewTask("bench-root", k.NewAddressSpace(), func(t *kernel.Task) int {
		body(k, t)
		return 0
	})
	k.Start(root, 0)
	err := e.Run()
	finish()
	return err
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
