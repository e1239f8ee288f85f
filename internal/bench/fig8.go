package bench

import (
	"errors"

	"repro/internal/aio"
	"repro/internal/arch"
	"repro/internal/blt"
	"repro/internal/core"
	"repro/internal/fs"
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

// overlapAIO measures t_ovrl for AIO: the submitter overlaps its own
// computation with the asynchronous write; open and close remain
// synchronous (AIO covers only read/write).
func overlapAIO(m *arch.Machine, size int, tCPU sim.Duration, suspend bool) (sim.Duration, error) {
	return MinOf(func() (sim.Duration, error) {
		var per sim.Duration
		err := RunKernel(m, func(k *kernel.Kernel, root *kernel.Task) {
			buf := writeSource(size)
			ctx, err := aio.New(root)
			if err != nil {
				panic(err)
			}
			per = timeLoop(k.Engine(), 2, 8, func(int) {
				fd, err := root.Open("/ovl", fs.OCreate|fs.OWrOnly|fs.OTrunc)
				if err != nil {
					panic(err)
				}
				r, err := ctx.WriteAsync(root, fd, buf)
				if err != nil {
					panic(err)
				}
				root.Compute(tCPU)
				if suspend {
					r.Suspend(root)
				} else {
					for {
						if _, err := r.Return(root); !errors.Is(err, aio.ErrInProgress) {
							break
						}
						root.SchedYield()
					}
				}
				root.Close(fd)
			})
			ctx.Close(root)
		})
		return per, err
	})
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
			ioULP := benchImage("io", func(envI interface{}) int {
				env := envI.(*core.Env)
				env.Decouple()
				ready++
				env.YieldUntil(started)
				per = timeLoop(e, warm, n, func(i int) {
					env.Exec(func(kc *kernel.Task) {
						fd, err := kc.Open("/ovl", fs.OCreate|fs.OWrOnly|fs.OTrunc)
						if err != nil {
							panic(err)
						}
						kc.Write(fd, buf, true)
						kc.Close(fd)
					})
					barrier(env, 0, i)
				})
				env.Couple()
				return 0
			})
			cpuULP := benchImage("cpu", func(envI interface{}) int {
				env := envI.(*core.Env)
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

		d, err = overlapAIO(m, size, tCPU, false)
		if err != nil {
			return err
		}
		record("AIO-return", d)

		d, err = overlapAIO(m, size, tCPU, true)
		if err != nil {
			return err
		}
		record("AIO-suspend", d)
		return nil
	})
	return res, err
}
