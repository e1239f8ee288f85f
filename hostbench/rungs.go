package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/arch"
	"repro/internal/blt"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/uctx"
)

// A rung is a fixed-iteration loop over one public function of one
// layer: the host cost of that layer alone, as ns and allocations per
// iteration. Set-up (engine, kernel, tasks) is amortised over the loop.
type rung struct {
	name  string
	iters int
	run   func(n int) error
}

var rungs = []rung{
	{"event", 20_000_000, rungEvent},
	{"proc_pingpong", 200_000, rungProcPingPong},
	{"getpid", 2_000_000, rungGetpid},
	{"sched_yield", 100_000, rungSchedYield},
	{"futex_pingpong", 30_000, rungFutexPingPong},
	{"clone_join", 30_000, rungCloneJoin},
	{"uctx_step", 200_000, rungUctxStep},
	{"ult_yield", 100_000, func(n int) error { return rungBLTYield(n, false) }},
	{"ulp_yield", 100_000, func(n int) error { return rungBLTYield(n, true) }},
	{"couple_decouple", 20_000, rungCoupleDecouple},
	{"probe_unattached", 20_000_000, func(n int) error { return rungProbe(n, nil) }},
	{"probe_observe", 10_000_000, func(n int) error {
		return rungProbe(n, func(*probe.Ctx) probe.Verdict { return probe.Verdict{} })
	}},
	{"probe_verdict", 10_000_000, func(n int) error {
		return rungProbe(n, func(*probe.Ctx) probe.Verdict { return probe.Verdict{Delay: sim.Nanosecond} })
	}},
	{"metrics_observe", 20_000_000, rungMetricsObserve},
}

// runRungs runs every rung once and reports ns and allocations per
// iteration, plus bytes per iteration for the futex round trip (the
// figure a futex free list would take to zero).
func runRungs(tiny bool) ([]metric, error) {
	var out []metric
	for _, r := range rungs {
		n := r.iters
		if tiny {
			n = max(1, n/10_000)
		}
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		err := r.run(n)
		el := time.Since(t0)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return nil, fmt.Errorf("rung %s: %w", r.name, err)
		}
		prefix := "rung." + r.name
		out = append(out,
			metric{prefix + ".ns_per_op", "ns", float64(el.Nanoseconds()) / float64(n)},
			metric{prefix + ".allocs_per_op", "count", float64(m1.Mallocs-m0.Mallocs) / float64(n)})
		if r.name == "futex_pingpong" {
			out = append(out, metric{prefix + ".bytes_per_op", "B", float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n)})
		}
	}
	return out, nil
}

// rungEvent: one proc advancing the clock, the engine's event path.
func rungEvent(n int) error {
	e := sim.New()
	e.Spawn("adv", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Advance(sim.Nanosecond)
		}
	})
	return e.Run()
}

// rungProcPingPong: two procs handing control back and forth through
// wait queues, one park/unpark round trip per iteration.
func rungProcPingPong(n int) error {
	e := sim.New()
	var q1, q2 sim.WaitQ
	e.Spawn("a", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			q1.Wait(p)
			q2.WakeOne(0)
		}
	})
	e.Spawn("b", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			q1.WakeOne(0)
			q2.Wait(p)
		}
	})
	return e.Run()
}

// runTasks runs body as a kernel task on Wallaby.
func runTasks(body func(k *kernel.Kernel, t *kernel.Task) error) error {
	e := sim.New()
	k := kernel.New(e, arch.Wallaby())
	var bodyErr error
	root := k.NewTask("rung", k.NewAddressSpace(), func(t *kernel.Task) int {
		bodyErr = body(k, t)
		return 0
	})
	k.Start(root, 0)
	if err := e.Run(); err != nil {
		return err
	}
	return bodyErr
}

func rungGetpid(n int) error {
	return runTasks(func(_ *kernel.Kernel, t *kernel.Task) error {
		for i := 0; i < n; i++ {
			t.Getpid()
		}
		return nil
	})
}

// rungSchedYield: two threads on one core, one kernel context switch
// per sched_yield.
func rungSchedYield(n int) error {
	return runTasks(func(_ *kernel.Kernel, root *kernel.Task) error {
		done := false
		a := root.ClonePinned("a", kernel.PThreadFlags, 1, func(t *kernel.Task) int {
			for i := 0; i < n; i++ {
				t.SchedYield()
			}
			done = true
			return 0
		})
		b := root.ClonePinned("b", kernel.PThreadFlags, 1, func(t *kernel.Task) int {
			for !done {
				t.SchedYield()
			}
			return 0
		})
		return joined(root, a, b)
	})
}

// rungFutexPingPong: two threads on two cores ping-pong through two
// semaphores; each round trip is two futex sleeps and two wakes.
func rungFutexPingPong(n int) error {
	return runTasks(func(_ *kernel.Kernel, root *kernel.Task) error {
		ping, err := root.NewSemaphore(0)
		if err != nil {
			return err
		}
		pong, err := root.NewSemaphore(0)
		if err != nil {
			return err
		}
		a := root.ClonePinned("a", kernel.PThreadFlags, 1, func(t *kernel.Task) int {
			for i := 0; i < n; i++ {
				ping.Post(t)
				pong.Wait(t)
			}
			return 0
		})
		b := root.ClonePinned("b", kernel.PThreadFlags, 2, func(t *kernel.Task) int {
			for i := 0; i < n; i++ {
				ping.Wait(t)
				pong.Post(t)
			}
			return 0
		})
		return joined(root, a, b)
	})
}

func rungCloneJoin(n int) error {
	return runTasks(func(_ *kernel.Kernel, root *kernel.Task) error {
		for i := 0; i < n; i++ {
			if err := joined(root, root.Clone("c", kernel.PThreadFlags, func(*kernel.Task) int { return 0 })); err != nil {
				return err
			}
		}
		return nil
	})
}

// joined joins kids and reports any non-zero exit.
func joined(root *kernel.Task, kids ...*kernel.Task) error {
	for _, kid := range kids {
		if st := root.Join(kid); st != 0 {
			return fmt.Errorf("%s exited %d", kid.Name(), st)
		}
	}
	return nil
}

// rungUctxStep: a kernel task stepping a user context that yields
// straight back (swap_ctx there and back).
func rungUctxStep(n int) error {
	return runTasks(func(_ *kernel.Kernel, t *kernel.Task) error {
		c := uctx.New("rung", func(c *uctx.Context) {
			for {
				c.Yield(nil)
			}
		})
		for i := 0; i < n; i++ {
			c.Step(t)
		}
		c.Kill()
		return nil
	})
}

// rungBLTYield: two decoupled BLTs yielding to each other on one
// scheduler core. With tls set they are ULPs (the scheduler switches the
// TLS register on every switch); without, plain ULTs.
func rungBLTYield(n int, tls bool) error {
	return runTasks(func(_ *kernel.Kernel, root *kernel.Task) error {
		pool, err := blt.NewPool(root, blt.Config{
			ProgCores: []int{0}, SyscallCores: []int{1, 2}, Idle: blt.BusyWait, SwitchTLS: tls,
		})
		if err != nil {
			return err
		}
		ready := 0
		body := func(b *blt.BLT) int {
			b.Decouple()
			ready++
			for ready < 2 {
				b.Yield()
			}
			for i := 0; i < n; i++ {
				b.Yield()
			}
			b.Couple()
			return 0
		}
		for _, name := range []string{"a", "b"} {
			if _, err := pool.Spawn(body, blt.SpawnOpts{Name: name, Scheduler: 0}); err != nil {
				return err
			}
		}
		for i := 0; i < 2; i++ {
			if _, _, err := root.Wait(); err != nil {
				return err
			}
		}
		pool.Shutdown(root)
		return nil
	})
}

// rungCoupleDecouple: one ULP moving to its original KC and back.
func rungCoupleDecouple(n int) error {
	e := sim.New()
	k := kernel.New(e, arch.Wallaby())
	var runErr error
	_, err := core.Boot(k, core.Config{ProgCores: []int{0, 1}, SyscallCores: []int{2, 3}, Idle: blt.BusyWait},
		func(rt *core.Runtime) int {
			_, runErr = rt.Spawn(simpleImage("rung", func(envI interface{}) int {
				env := envI.(*core.Env)
				for i := 0; i < n; i++ {
					env.Decouple()
					if err := env.Couple(); err != nil {
						return 1
					}
				}
				return 0
			}), core.SpawnOpts{Scheduler: 0})
			if runErr == nil {
				var st []int
				if st, runErr = rt.WaitAll(); runErr == nil && st[0] != 0 {
					runErr = fmt.Errorf("couple failed")
				}
			}
			rt.Shutdown()
			return 0
		})
	if err != nil {
		return err
	}
	if err := e.Run(); err != nil {
		return err
	}
	return runErr
}

// rungProbe fires one attach point through the probe registry: with fn
// nil nothing is attached, else fn is.
func rungProbe(n int, fn probe.Func) error {
	r := probe.NewRegistry()
	if fn != nil {
		r.Attach("rung", fn, probe.PSyscallEnter)
	}
	var delay sim.Duration
	for i := 0; i < n; i++ {
		c := r.Begin(probe.PSyscallEnter, sim.Time(i))
		c.Site = "getpid"
		delay += r.Fire(c).Delay
	}
	if fn == nil && delay != 0 {
		return fmt.Errorf("unattached point returned a verdict")
	}
	return nil
}

func rungMetricsObserve(n int) error {
	var h metrics.Histogram
	for i := 0; i < n; i++ {
		h.Observe(int64(i))
	}
	if h.Count() != uint64(n) {
		return fmt.Errorf("histogram counted %d of %d", h.Count(), n)
	}
	return nil
}
