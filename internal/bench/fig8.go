package bench

import (
	"repro/internal/arch"
	"repro/internal/blt"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/sim"
)

// Fig8Result is one machine's overlap-ratio curves, computed with the
// Intel MPI Benchmarks method the paper cites: t_pure is the blocking
// open-write-close, t_cpu a computation of equal length, t_ovrl the
// overlapped execution.
type Fig8Result struct {
	Machine *arch.Machine
	Sizes   []int
	Overlap map[string][]float64 // mechanism -> per-size overlap %
}

// Series converts the result to plottable series.
func (r Fig8Result) Series() []Series {
	var out []Series
	for _, mech := range Fig7Mechanisms {
		s := Series{Machine: r.Machine, Label: mech}
		for i, v := range r.Overlap[mech] {
			s.Points = append(s.Points, Point{X: float64(r.Sizes[i]), Y: v})
		}
		out = append(out, s)
	}
	return out
}

// overlapULP measures t_ovrl for ULP-PiP: two ULPs share one program
// core — one executes the open-write-close inside a couple()/decouple()
// bracket (so the I/O runs on the dedicated syscall core), the other
// computes. The makespan of each iteration is the overlapped time.
func overlapULP(m *arch.Machine, size int, tCPU sim.Duration, idle blt.IdlePolicy) (sim.Duration, error) {
	return MinOf(func() (sim.Duration, error) {
		var per sim.Duration
		err := runULP(m, ulpConfig(idle), func(rt *core.Runtime) {
			e := rt.Kernel().Engine()
			buf := writeSource(size)
			const warm, n = 2, 8
			ready := 0
			started := func(*kernel.Task) bool { return ready >= 2 }
			// phase[i] counts completed iterations per ULP; each waits
			// for its peer at iteration boundaries by yielding.
			var phase [2]int
			barrier := func(env *core.Env, self, iter int) {
				phase[self] = iter + 1
				env.YieldUntil(func(*kernel.Task) bool { return phase[1-self] >= iter+1 })
			}
			ioULP := core.Program("io", func(env *core.Env) int {
				env.Decouple()
				ready++
				env.YieldUntil(started)
				per = timeLoop(e, warm, n, func(i int) {
					env.Exec(func(kc *kernel.Task) {
						if err := openWriteClose(kc, "/ovl", buf, true); err != nil {
							panic(err)
						}
					})
					barrier(env, 0, i)
				})
				env.Couple()
				return 0
			})
			cpuULP := core.Program("cpu", func(env *core.Env) int {
				env.Decouple()
				ready++
				env.YieldUntil(started)
				for i := 0; i < warm+n; i++ {
					env.Compute(tCPU)
					barrier(env, 1, i)
				}
				env.Couple()
				return 0
			})
			rt.Spawn(ioULP, core.SpawnOpts{Scheduler: 0})
			rt.Spawn(cpuULP, core.SpawnOpts{Scheduler: 0})
			rt.WaitAll()
		})
		return per, err
	})
}

// Fig8 sweeps overlap ratios over the write-buffer sizes on machine m.
// Each size is one independent job on the sweep worker pool: the pure
// time sizes the overlapped computation, so a size's five measurements
// stay together, but different sizes fan out. Results land in
// preallocated per-size slots — output is identical at any Parallelism.
func Fig8(m *arch.Machine) (Fig8Result, error) {
	sizes := Fig8Sizes()
	res := Fig8Result{
		Machine: m,
		Sizes:   sizes,
		Overlap: make(map[string][]float64, len(Fig7Mechanisms)),
	}
	for _, mech := range Fig7Mechanisms {
		res.Overlap[mech] = make([]float64, len(sizes))
	}
	err := sweep(len(sizes), func(i int) error {
		size := sizes[i]
		tPure, err := owcBaseline(m, size)
		if err != nil {
			return err
		}
		tCPU := tPure // IMB: computation sized to the pure op

		record := func(mech string, tOvrl sim.Duration) {
			res.Overlap[mech][i] = IMBOverlap(tPure, tCPU, tOvrl)
		}

		d, err := overlapULP(m, size, tCPU, blt.BusyWait)
		if err != nil {
			return err
		}
		record("ULP-BUSYWAIT", d)

		d, err = overlapULP(m, size, tCPU, blt.Blocking)
		if err != nil {
			return err
		}
		record("ULP-BLOCKING", d)

		d, err = owcAIO(m, size, tCPU, false, 2, 8)
		if err != nil {
			return err
		}
		record("AIO-return", d)

		d, err = owcAIO(m, size, tCPU, true, 2, 8)
		if err != nil {
			return err
		}
		record("AIO-suspend", d)
		return nil
	})
	return res, err
}
