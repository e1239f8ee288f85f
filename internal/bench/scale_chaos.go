package bench

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/fault"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/planes"
	"repro/internal/probe"
	"repro/internal/sim"
)

// The chaos-at-scale suite (ulpbench -scale -chaos) proves the
// supervision plane holds up at the machine's design-point task counts:
//
//   - spawn-join vs spawn-join-supervised: the same wave workload with
//     and without the plane installed. Their virtual columns must match
//     (the watchdog charges no virtual time); their wall columns differ
//     by less than host noise, so the suite prints no overhead figure;
//   - chaos-fanin: n fault-robust waiters on one futex word under
//     injected lost wakes, spurious wakes and EINTR, with supervision
//     on. The row fails unless every waiter recovers within a bounded
//     virtual window, no tenant is stranded, the futex table drains, and
//     the watchdog saw neither deadlocks nor quarantines.
//
// Like the base scale suite, virtual columns are deterministic (minInto
// asserts exact repeats — the fault plane and restart jitter are seeded
// below) while wall/alloc columns are host-coloured; the JSON snapshot
// therefore goes to its own file, not BENCH_scale.json.

// chaosScaleSeed feeds the fault plane and the supervision plane's
// restart jitter. Fixed, so every repeat replays the same fault
// schedule and the virtual column repeats exactly.
const chaosScaleSeed = 0xc4a05

// Fault-robust waiter backoff bounds (same shape as the aio/blt
// lost-wake recovery): a dropped wake costs at most the max backoff.
const (
	chaosWaitBase = 10 * sim.Microsecond
	chaosWaitMax  = 1 * sim.Millisecond
)

// Recovery budget from the release flag being published to root
// observing an empty futex word. Two components: a fixed fault-recovery
// term (each timed wait re-checks the flag within chaosWaitMax, so a
// lost wake costs at most one backoff), plus a per-task dispatch
// allowance — the n woken waiters drain through the machine's few cores
// at Θ(n) virtual cost (the base fan-in row runs ~0.3 µs/op on Wallaby
// and ~1.6 µs/op on Albireo), and root's observation is queued behind
// that herd. Recovery beyond the sum means the wake path stranded
// someone.
const (
	chaosRecoveryFixed   = 10 * sim.Millisecond
	chaosRecoveryPerTask = 2 * sim.Microsecond
)

func chaosRecoveryBound(n int) sim.Duration {
	return chaosRecoveryFixed + sim.Duration(n)*chaosRecoveryPerTask
}

// FullChaosScaleConfig is the 100k-ULP chaos-at-scale configuration the
// EXPERIMENTS.md numbers come from.
func FullChaosScaleConfig() ScaleConfig {
	return ScaleConfig{
		Label:     "chaos-full",
		SpawnJoin: []int{100_000},
		FanIn:     []int{10_000, 100_000},
	}
}

// QuickChaosScaleConfig is the CI-sized chaos-at-scale configuration
// behind -scale -chaos -quick.
func QuickChaosScaleConfig() ScaleConfig {
	return ScaleConfig{
		Label:     "chaos-quick",
		SpawnJoin: []int{10_000},
		FanIn:     []int{2_048},
	}
}

// ChaosScale runs the chaos-at-scale suite on machine m. ChurnWords is
// unused here; the base suite owns that series.
func ChaosScale(m *arch.Machine, cfg ScaleConfig) (ScaleResult, error) {
	res := ScaleResult{Machine: m, Config: cfg}
	for _, n := range cfg.SpawnJoin {
		for _, supervised := range []bool{false, true} {
			if err := res.addMin(func() (ScaleRow, error) { return scaleSpawnJoin(m, n, supervised) }); err != nil {
				return res, err
			}
		}
	}
	for _, n := range cfg.FanIn {
		n := n
		if err := res.addMin(func() (ScaleRow, error) { return chaosFanIn(m, n) }); err != nil {
			return res, err
		}
	}
	return res, nil
}

// chaosWaiter is the body of a fault-robust fan-in waiter: it sleeps on
// the futex word at addr until the word reads 1. The release flag makes
// it immune to every injected futex misbehaviour: a lost wake costs at
// most the current timeout, which doubles from chaosWaitBase up to
// chaosWaitMax, and a spurious wake or EINTR just re-checks.
func chaosWaiter(addr uint64) kernel.TaskBody {
	return func(t *kernel.Task) int {
		var backoff sim.Duration
		for {
			v, rerr := t.Space().ReadU64(addr, nil)
			if rerr != nil {
				return 1
			}
			if v == 1 {
				return 0
			}
			if backoff == 0 {
				backoff = chaosWaitBase
			} else {
				backoff = min(2*backoff, chaosWaitMax)
			}
			switch t.FutexWaitTimeout(addr, 0, backoff) {
			case nil, kernel.ErrFutexAgain, kernel.ErrInterrupted, kernel.ErrTimedOut:
			default:
				return 1
			}
		}
	}
}

// chaosFanIn blocks n fault-robust waiters on one futex word under an
// injected futex fault mix, then releases them through a flag write plus
// a re-wake loop, with the supervision plane watching. The row errors if
// recovery exceeds chaosRecoveryBound(n), any waiter is stranded, the
// futex table retains entries, no fault actually fired, or the plane
// recorded a deadlock or quarantine.
func chaosFanIn(m *arch.Machine, n int) (ScaleRow, error) {
	row := ScaleRow{Series: "chaos-fanin", N: n}
	var bodyErr error
	fail := func(format string, args ...interface{}) {
		bodyErr = fmt.Errorf("chaos-fanin n=%d: "+format, append([]interface{}{n}, args...)...)
	}
	o := Planes
	o.Faults = []fault.Spec{
		{Site: probe.SiteFutexLostWake, Prob: 0.05, TaskPrefix: "cfw"},
		{Site: probe.SiteFutexSpurious, Prob: 0.05, TaskPrefix: "cfw"},
		{Site: probe.SiteFutexWait, Prob: 0.02, Err: "eintr", TaskPrefix: "cfw"},
	}
	o.Supervise, o.Seed = true, chaosScaleSeed
	wall, allocs, err := scaleRun(m, o, func(k *kernel.Kernel, root *kernel.Task, p planes.Planes) {
		e := k.Engine()
		space := root.Space()
		addr, merr := space.Mmap(8, mem.ProtRead|mem.ProtWrite, "chaos-fanin-word", true, nil)
		if merr != nil {
			bodyErr = merr
			return
		}
		t0 := e.Now()
		waiters := make([]*kernel.Task, n)
		waiter := chaosWaiter(addr)
		for i := range waiters {
			waiters[i] = root.Clone("cfw", kernel.PThreadFlags, waiter)
		}
		// Let the herd park, publish the release flag, then re-wake while
		// sleepers remain: an injected lost wake strands its target only
		// until the next re-wake round or its own backoff timeout.
		root.Nanosleep(200 * sim.Microsecond)
		row.TablePeak = k.FutexTableSize()
		space.WriteU64(addr, 1, nil)
		wakeStart := e.Now()
		root.FutexWake(addr, n)
		for k.FutexWaiters(space.ID, addr) > 0 {
			root.Nanosleep(20 * sim.Microsecond)
			root.FutexWake(addr, n)
		}
		recovery := e.Now().Sub(wakeStart)
		for _, w := range waiters {
			if root.Join(w) != 0 {
				fail("waiter exited non-zero")
				return
			}
		}
		row.Virt = e.Now().Sub(t0)
		row.TableEnd = k.FutexTableSize()
		switch {
		case recovery > chaosRecoveryBound(n):
			fail("recovery took %v, bound %v", recovery, chaosRecoveryBound(n))
		case p.Fault.Injections() == 0:
			fail("fault plane fired nothing — the row proved nothing")
		case row.TableEnd != 0:
			fail("futex table retains %d entries at quiescence", row.TableEnd)
		case len(p.Sup.Deadlocks()) != 0:
			fail("watchdog reported %d deadlock(s)", len(p.Sup.Deadlocks()))
		case p.Sup.Quarantines() != 0:
			fail("%d tenant(s) quarantined; the restart budget must not exhaust here", p.Sup.Quarantines())
		}
	})
	if err == nil {
		err = bodyErr
	}
	row.Wall, row.Allocs = wall, allocs
	return row, err
}
