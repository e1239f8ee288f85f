package bench

import (
	"errors"
	"fmt"

	"repro/internal/aio"
	"repro/internal/arch"
	"repro/internal/blt"
	"repro/internal/core"
	"repro/internal/fs"
	"repro/internal/kernel"
	"repro/internal/sim"
)

// Fig7Mechanisms are the series of Fig. 7, in the paper's legend order.
var Fig7Mechanisms = []string{
	"ULP-BUSYWAIT", "ULP-BLOCKING", "AIO-return", "AIO-suspend",
}

// Fig7Result is one machine's slowdown curves: the time of an
// open-write-close sequence on tmpfs with each mechanism, divided by the
// plain synchronous system-calls.
type Fig7Result struct {
	Machine  *arch.Machine
	Sizes    []int
	Baseline []sim.Duration            // plain open-write-close per size
	Times    map[string][]sim.Duration // mechanism -> per-size time
}

// Slowdown returns the mechanism's slowdown ratio per size.
func (r Fig7Result) Slowdown(mech string) []float64 {
	out := make([]float64, len(r.Sizes))
	for i, t := range r.Times[mech] {
		out[i] = float64(t) / float64(r.Baseline[i])
	}
	return out
}

// Series converts the result to plottable series.
func (r Fig7Result) Series() []Series {
	var out []Series
	for _, mech := range Fig7Mechanisms {
		s := Series{Machine: r.Machine, Label: mech}
		for i, v := range r.Slowdown(mech) {
			s.Points = append(s.Points, Point{X: float64(r.Sizes[i]), Y: v})
		}
		out = append(out, s)
	}
	return out
}

// zeroSource backs the write buffers of Figs. 7 and 8. Write and
// WriteAsync only read their source, so every measurement, parallel
// sweeps included, slices this one zero array instead of allocating and
// zeroing its own; 1 MiB is the largest Fig7Sizes entry.
var zeroSource [1 << 20]byte

// writeSource returns a read-only, zeroed size-byte write buffer.
func writeSource(size int) []byte {
	if size <= len(zeroSource) {
		return zeroSource[:size:size]
	}
	return make([]byte, size)
}

// owcBaseline measures one plain synchronous open-write-close of size
// bytes on tmpfs (the Fig. 7 denominator).
func owcBaseline(m *arch.Machine, size int) (sim.Duration, error) {
	return MinOf(func() (sim.Duration, error) {
		var per sim.Duration
		err := RunKernel(m, func(k *kernel.Kernel, root *kernel.Task) {
			buf := writeSource(size)
			per = timeLoop(k.Engine(), 4, 16, func(int) {
				fd, err := root.Open("/bench", fs.OCreate|fs.OWrOnly|fs.OTrunc)
				if err != nil {
					panic(err)
				}
				root.Write(fd, buf, false)
				root.Close(fd)
			})
		})
		return per, err
	})
}

// owcAIO times open (sync) + aio_write + the overlapped computation
// tCPU + wait + close (sync): only the write is asynchronous — "the
// current AIO infrastructure only supports read and write". Fig. 7
// overlaps nothing (tCPU 0, which charges nothing); Fig. 8 sizes tCPU
// to the plain operation. suspend selects aio_suspend over the
// aio_return polling loop. It returns the mean of n calls after warm
// unmeasured ones, whose first creates the helper thread, as the paper
// excludes it.
func owcAIO(m *arch.Machine, size int, tCPU sim.Duration, suspend bool, warm, n int) (sim.Duration, error) {
	return MinOf(func() (sim.Duration, error) {
		var per sim.Duration
		err := RunKernel(m, func(k *kernel.Kernel, root *kernel.Task) {
			buf := writeSource(size)
			ctx, err := aio.New(root)
			if err != nil {
				panic(err)
			}
			per = timeLoop(k.Engine(), warm, n, func(int) {
				fd, err := root.Open("/bench", fs.OCreate|fs.OWrOnly|fs.OTrunc)
				if err != nil {
					panic(err)
				}
				r, err := ctx.WriteAsync(root, fd, buf)
				if err != nil {
					panic(err)
				}
				if tCPU > 0 {
					root.Compute(tCPU)
				}
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

// owcULP measures the whole open-write-close series inside one
// couple()/decouple() bracket of a decoupled ULP — "the whole sequence
// must be done by a KLT otherwise the system-call consistency is
// broken". The write streams the buffer to the dedicated syscall core
// (remote=true), which is where the Albireo crossover comes from.
func owcULP(m *arch.Machine, size int, idle blt.IdlePolicy) (sim.Duration, error) {
	return MinOf(func() (sim.Duration, error) {
		var per sim.Duration
		err := runULP(m, ulpConfig(idle), func(rt *core.Runtime) {
			e := rt.Kernel().Engine()
			buf := writeSource(size)
			rt.Spawn(benchImage("owc", func(envI interface{}) int {
				env := envI.(*core.Env)
				env.Decouple()
				per = timeLoop(e, 4, 16, func(int) {
					env.Exec(func(kc *kernel.Task) {
						fd, err := kc.Open("/bench", fs.OCreate|fs.OWrOnly|fs.OTrunc)
						if err != nil {
							panic(err)
						}
						kc.Write(fd, buf, true)
						kc.Close(fd)
					})
				})
				env.Couple()
				return 0
			}), core.SpawnOpts{Scheduler: 0})
			rt.WaitAll()
		})
		return per, err
	})
}

// Fig7 sweeps all mechanisms over the write-buffer sizes on machine m.
func Fig7(m *arch.Machine) (Fig7Result, error) {
	return Fig7Sweep(m, Fig7Sizes())
}

// Fig7Sweep runs the Fig. 7 grid over the given sizes. Every cell of the
// size × mechanism grid (baseline included) is an independent job on its
// own simulated machine, so the grid fans out across the sweep worker
// pool; results land in preallocated slots by (size, mechanism) index and
// the output is identical at any Parallelism.
func Fig7Sweep(m *arch.Machine, sizes []int) (Fig7Result, error) {
	res := Fig7Result{
		Machine:  m,
		Sizes:    sizes,
		Baseline: make([]sim.Duration, len(sizes)),
		Times:    make(map[string][]sim.Duration, len(Fig7Mechanisms)),
	}
	for _, mech := range Fig7Mechanisms {
		res.Times[mech] = make([]sim.Duration, len(sizes))
	}
	var jobs []func() error
	for i, size := range sizes {
		i, size := i, size
		jobs = append(jobs,
			func() error {
				d, err := owcBaseline(m, size)
				if err != nil {
					return fmt.Errorf("baseline size %d: %w", size, err)
				}
				res.Baseline[i] = d
				return nil
			},
			func() error {
				d, err := owcULP(m, size, blt.BusyWait)
				res.Times["ULP-BUSYWAIT"][i] = d
				return err
			},
			func() error {
				d, err := owcULP(m, size, blt.Blocking)
				res.Times["ULP-BLOCKING"][i] = d
				return err
			},
			func() error {
				d, err := owcAIO(m, size, 0, false, 4, 16)
				res.Times["AIO-return"][i] = d
				return err
			},
			func() error {
				d, err := owcAIO(m, size, 0, true, 4, 16)
				res.Times["AIO-suspend"][i] = d
				return err
			},
		)
	}
	err := sweep(len(jobs), func(i int) error { return jobs[i]() })
	return res, err
}
