package core

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/blt"
	"repro/internal/kernel"
	"repro/internal/sim"
)

// TestPreemptionBoundsLatency: a short-request ULP behind a long
// compute-bound ULP on one program core. Without a preemption quantum
// the short one waits for the whole long burst; with one it runs within
// a quantum — the Shinjuku motivation (microsecond tail latency).
func TestPreemptionBoundsLatency(t *testing.T) {
	const longBurst = 2 * sim.Millisecond
	const quantum = 20 * sim.Microsecond

	latency := func(preempt sim.Duration) sim.Duration {
		e := sim.New()
		k := kernel.New(e, arch.Wallaby())
		var shortDone sim.Duration
		var submit sim.Time
		started := false
		longProg := Program("hog", func(env *Env) int {
			env.Decouple()
			started = true
			env.Compute(longBurst)
			env.Couple()
			return 0
		})
		shortProg := Program("short", func(env *Env) int {
			env.Decouple()
			env.Compute(sim.Microsecond)
			// Turnaround from submission: includes the queueing delay
			// behind the hog, which is the quantity preemption bounds.
			shortDone = e.Now().Sub(submit)
			env.Couple()
			return 0
		})
		cfg := Config{
			ProgCores:      []int{0}, // one program core: they contend
			SyscallCores:   []int{2, 3},
			Idle:           blt.Blocking,
			PreemptQuantum: preempt,
		}
		Boot(k, cfg, func(rt *Runtime) int {
			rt.Spawn(longProg, SpawnOpts{Scheduler: 0})
			// Ensure the hog is running before the short request lands.
			for !started {
				rt.RootTask().Nanosleep(10 * sim.Microsecond)
			}
			submit = e.Now()
			rt.Spawn(shortProg, SpawnOpts{Scheduler: 0})
			rt.WaitAll()
			rt.Shutdown()
			return 0
		})
		if err := e.Run(); err != nil {
			t.Fatalf("engine: %v", err)
		}
		return shortDone
	}

	without := latency(0)
	with := latency(quantum)
	// Without preemption the short request waits out most of the 2 ms
	// burst; with a 20 us quantum it completes after spawn overhead
	// (~220 us of dlmopen+clone) plus a few quanta.
	if without < longBurst/2 {
		t.Errorf("non-preemptive short latency = %v, want >= %v", without, longBurst/2)
	}
	if with > 600*sim.Microsecond {
		t.Errorf("preemptive short latency = %v, want <= 600us", with)
	}
	if float64(with)*2 > float64(without) {
		t.Errorf("preemption did not help: %v vs %v", with, without)
	}
}

// TestPreemptionDoesNotSliceCoupledCode: coupled sections are KLT code;
// the quantum must not apply.
func TestPreemptionDoesNotSliceCoupledCode(t *testing.T) {
	e := sim.New()
	k := kernel.New(e, arch.Wallaby())
	cfg := Config{
		ProgCores:      []int{0, 1},
		SyscallCores:   []int{2, 3},
		Idle:           blt.BusyWait,
		PreemptQuantum: 5 * sim.Microsecond,
	}
	Boot(k, cfg, func(rt *Runtime) int {
		u, _ := rt.Spawn(Program("c", func(env *Env) int {
			env.Decouple()
			env.Couple()
			env.Compute(100 * sim.Microsecond) // coupled: no slicing
			env.Decouple()
			env.Couple()
			return 0
		}), SpawnOpts{Scheduler: -1})
		rt.WaitAll()
		_, _, yields := u.Stats()
		if yields != 0 {
			t.Errorf("coupled compute yielded %d times; preemption must not apply", yields)
		}
		rt.Shutdown()
		return 0
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}
