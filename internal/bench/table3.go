package bench

import (
	"repro/internal/arch"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/uctx"
)

// Table3Result reproduces paper Table III: the raw user-level context
// switch time and the TLS-register load time on each machine.
type Table3Result struct {
	CtxSwitch Measurement
	LoadTLS   Measurement
}

// Table3 measures the two primitives on machine m.
//
// Context switch: two fcontext-style user contexts ping-pong on a single
// kernel task, each transfer charging one swap — the Boost fcontext
// microbenchmark. Load TLS: a tight loop of TLS-register loads
// (arch_prctl on x86_64; a register write on AArch64).
func Table3(m *arch.Machine) (Table3Result, error) {
	var res Table3Result

	swap, err := MinOf(func() (sim.Duration, error) {
		var per sim.Duration
		err := RunKernel(m, func(k *kernel.Kernel, root *kernel.Task) {
			costs := k.Machine().Costs
			// Two contexts ping-ponging: context A is the measuring
			// loop, context B just bounces back.
			var a, b *uctx.Context
			b = uctx.New("b", func(c *uctx.Context) {
				for {
					c.Yield(nil)
				}
			})
			a = uctx.New("a", func(c *uctx.Context) {
				// Each iteration of a is one a->b swap and one b->a swap.
				per = timeLoop(k.Engine(), 16, 512, func(int) {
					// swap_ctx(a, b): one save+load.
					root.Charge(costs.UserCtxSwap)
					c.Yield(nil)
				}) / 2
			})
			for !a.Done() {
				if ev := a.Step(root); ev.Kind == uctx.EvExit {
					break
				}
				root.Charge(costs.UserCtxSwap)
				b.Step(root)
			}
			b.Kill()
		})
		return per, err
	})
	if err != nil {
		return res, err
	}
	res.CtxSwitch = NewMeasurement(m, "Context Sw.", swap)

	tls, err := MinOf(func() (sim.Duration, error) {
		var per sim.Duration
		err := RunKernel(m, func(k *kernel.Kernel, root *kernel.Task) {
			per = timeLoop(k.Engine(), 16, 512, func(i int) {
				root.LoadTLS(uint64(0x1000 + i))
			})
		})
		return per, err
	})
	if err != nil {
		return res, err
	}
	res.LoadTLS = NewMeasurement(m, "Load TLS", tls)
	return res, nil
}
