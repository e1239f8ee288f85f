package bench

import (
	"repro/internal/arch"
	"repro/internal/blt"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/loader"
	"repro/internal/sim"
)

// Table4Result reproduces paper Table IV: the time of yielding between
// two ULPs vs two PThreads, normalized to one yield.
type Table4Result struct {
	ULPYield        Measurement // "ULP-PiP yield"
	SchedYield1Core Measurement // "sched_yield() on 1 core"
	SchedYield2Core Measurement // "sched_yield() on 2 cores"
}

// ulpConfig is the standard 2+2-core deployment used by the ULP
// micro-benchmarks.
func ulpConfig(idle blt.IdlePolicy) core.Config {
	return core.Config{
		ProgCores:    []int{0, 1},
		SyscallCores: []int{2, 3},
		Idle:         idle,
	}
}

// benchImage builds a minimal PIE image whose Main is fn.
func benchImage(name string, fn loader.MainFunc) *loader.Image {
	return &loader.Image{
		Name: name, PIE: true, TextSize: 4096,
		Symbols: []loader.Symbol{
			{Name: "state", Size: 64},
			{Name: "errno", Size: 8, TLS: true},
		},
		Main: fn,
	}
}

// runULP boots a ULP-PiP runtime with cfg on m, runs setup inside the
// root and shuts the runtime down.
func runULP(m *arch.Machine, cfg core.Config, setup func(rt *core.Runtime)) error {
	k, p := newKernel(m, Planes)
	if _, err := core.Boot(k, cfg, func(rt *core.Runtime) int {
		setup(rt)
		rt.Shutdown()
		return 0
	}); err != nil {
		return err
	}
	return finish(k, p, k.Engine().Run())
}

// ulpYieldTime measures the steady-state per-yield time of two ULPs
// ping-ponging on one scheduler core.
func ulpYieldTime(m *arch.Machine) (sim.Duration, error) {
	return MinOf(func() (sim.Duration, error) {
		var per sim.Duration
		err := runULP(m, ulpConfig(blt.BusyWait), func(rt *core.Runtime) {
			e := rt.Kernel().Engine()
			ready, done := 0, false
			started := func(*kernel.Task) bool { return ready >= 2 }
			finished := func(*kernel.Task) bool { return done }
			prog := func(measuring bool) *loader.Image {
				return benchImage("yield", func(envI interface{}) int {
					env := envI.(*core.Env)
					env.Decouple()
					ready++
					env.YieldUntil(started)
					if measuring {
						// Each iteration is this ULP's yield and its peer's.
						per = timeLoop(e, 32, 512, func(int) { env.Yield() }) / 2
						done = true
					} else {
						env.YieldUntil(finished)
					}
					env.Couple()
					return 0
				})
			}
			rt.Spawn(prog(true), core.SpawnOpts{Scheduler: 0})
			rt.Spawn(prog(false), core.SpawnOpts{Scheduler: 0})
			rt.WaitAll()
		})
		return per, err
	})
}

// schedYieldTime measures two kernel threads calling sched_yield, pinned
// either to the same core (real context switches) or different cores
// (the call returns immediately).
func schedYieldTime(m *arch.Machine, sameCore bool) (sim.Duration, error) {
	return MinOf(func() (sim.Duration, error) {
		var per sim.Duration
		err := RunKernel(m, func(k *kernel.Kernel, root *kernel.Task) {
			done := false
			coreB := 0
			if !sameCore {
				coreB = 1
			}
			a := root.ClonePinned("ya", kernel.PThreadFlags, 0, func(t *kernel.Task) int {
				per = timeLoop(k.Engine(), 32, 512, func(int) { t.SchedYield() })
				if sameCore {
					// Both threads' yields interleave on the one core.
					per /= 2
				}
				done = true
				return 0
			})
			b := root.ClonePinned("yb", kernel.PThreadFlags, coreB, func(t *kernel.Task) int {
				for !done {
					t.SchedYield()
				}
				return 0
			})
			root.Join(a)
			root.Join(b)
		})
		return per, err
	})
}

// Table4 runs all three rows on machine m.
func Table4(m *arch.Machine) (Table4Result, error) {
	var res Table4Result
	d, err := ulpYieldTime(m)
	if err != nil {
		return res, err
	}
	res.ULPYield = NewMeasurement(m, "ULP-PiP yield", d)

	d, err = schedYieldTime(m, true)
	if err != nil {
		return res, err
	}
	res.SchedYield1Core = NewMeasurement(m, "sched_yield() on 1 core", d)

	d, err = schedYieldTime(m, false)
	if err != nil {
		return res, err
	}
	res.SchedYield2Core = NewMeasurement(m, "sched_yield() on 2 cores", d)
	return res, nil
}
