package bench

import (
	"repro/internal/arch"
	"repro/internal/blt"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/sim"
)

// Table5Result reproduces paper Table V: the time of getpid() — plain
// Linux, and enclosed in couple()/decouple() under both idle policies.
type Table5Result struct {
	Linux    Measurement
	BusyWait Measurement
	Blocking Measurement
}

// linuxGetpidTime measures a plain kernel task's getpid loop.
func linuxGetpidTime(m *arch.Machine) (sim.Duration, error) {
	return MinOf(func() (sim.Duration, error) {
		var per sim.Duration
		err := RunKernel(m, func(k *kernel.Kernel, root *kernel.Task) {
			per = timeLoop(k.Engine(), 16, 256, func(int) { root.Getpid() })
		})
		return per, err
	})
}

// ulpGetpidTime measures getpid() bracketed by couple()/decouple() from
// a decoupled ULP, under the given idle policy.
func ulpGetpidTime(m *arch.Machine, idle blt.IdlePolicy) (sim.Duration, error) {
	return MinOf(func() (sim.Duration, error) {
		var per sim.Duration
		err := runULP(m, ulpConfig(idle), func(rt *core.Runtime) {
			e := rt.Kernel().Engine()
			rt.Spawn(core.Program("getpid", func(env *core.Env) int {
				env.Decouple()
				per = timeLoop(e, 16, 128, func(int) {
					env.Getpid() // couple(); getpid(); decouple()
				})
				env.Couple()
				return 0
			}), core.SpawnOpts{Scheduler: 0})
			rt.WaitAll()
		})
		return per, err
	})
}

// Table5 runs the three rows on machine m.
func Table5(m *arch.Machine) (Table5Result, error) {
	var res Table5Result
	d, err := linuxGetpidTime(m)
	if err != nil {
		return res, err
	}
	res.Linux = NewMeasurement(m, "Linux", d)

	d, err = ulpGetpidTime(m, blt.BusyWait)
	if err != nil {
		return res, err
	}
	res.BusyWait = NewMeasurement(m, "ULP-PiP: BUSYWAIT", d)

	d, err = ulpGetpidTime(m, blt.Blocking)
	if err != nil {
		return res, err
	}
	res.Blocking = NewMeasurement(m, "ULP-PiP: BLOCKING", d)
	return res, nil
}
