// Chaos fuzzing of the Table I protocol: seeded random operation mixes
// under the default fault plane, across both machine models and both
// idle policies. Each seed's run is verified (syscall consistency, no
// lost BLTs, WaitAll termination) and re-run to prove the digest is a
// pure function of the seed. A failure prints the ulpsim repro command.
//
// This file is an external test package (fault_test): the chaos driver
// imports internal/blt, whose own in-package tests import internal/fault,
// so an in-package chaos test would be an import cycle.
package fault_test

import (
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/blt"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/probe"
)

// TestChaosSeedMatrix is the headline acceptance run: 64 seeds spread
// over {Wallaby, Albireo} x {BusyWait, Blocking}, each run twice for
// determinism. -short keeps a quarter of the matrix for quick runs.
func TestChaosSeedMatrix(t *testing.T) {
	seedsPerCell := 16
	if testing.Short() {
		seedsPerCell = 4
	}
	for _, m := range arch.Machines() {
		for _, idle := range []blt.IdlePolicy{blt.BusyWait, blt.Blocking} {
			m, idle := m, idle
			t.Run(m.Name+"/"+idle.String(), func(t *testing.T) {
				for s := 0; s < seedsPerCell; s++ {
					seed := uint64(1 + s)
					cfg := chaos.Config{Machine: m, Seed: seed, Idle: idle}
					d1, err := chaos.Run(cfg)
					if err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
					d2, err := chaos.Run(cfg)
					if err != nil {
						t.Fatalf("seed %d (rerun): %v", seed, err)
					}
					if !d1.Equal(d2) {
						t.Fatalf("seed %d nondeterministic:\n  run1: %s\n  run2: %s\nrepro: %s",
							seed, d1, d2, chaos.ReproCommand(cfg))
					}
				}
			})
		}
	}
}

// TestChaosUcontextMode runs a slice of seeds with ucontext-style
// (mask-switching) context switches, the slower §VII mode.
func TestChaosUcontextMode(t *testing.T) {
	for seed := uint64(100); seed < 104; seed++ {
		cfg := chaos.Config{Seed: seed, Idle: blt.Blocking, SigMode: core.UcontextMode}
		if _, err := chaos.Run(cfg); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestChaosAggressiveKills cranks the kill probabilities far above the
// default mix: most KCs die mid-run. Every ULP must still be accounted
// for (orphans included) and the digest must stay deterministic.
func TestChaosAggressiveKills(t *testing.T) {
	specs := []fault.Spec{
		{Site: probe.SiteKCKill, Prob: 0.2, TaskPrefix: "kc.chaos"},
		{Site: probe.SiteSchedKill, Prob: 0.05, TaskPrefix: "sched."},
		{Site: probe.SiteFutexLostWake, Prob: 0.1},
		{Site: probe.SiteSchedDelay, Prob: 0.1, DelayUS: 100},
	}
	sawOrphan := false
	for seed := uint64(200); seed < 208; seed++ {
		cfg := chaos.Config{Seed: seed, Idle: blt.Blocking, Specs: specs}
		d1, err := chaos.Run(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		d2, err := chaos.Run(cfg)
		if err != nil {
			t.Fatalf("seed %d (rerun): %v", seed, err)
		}
		if !d1.Equal(d2) {
			t.Fatalf("seed %d nondeterministic:\n  run1: %s\n  run2: %s", seed, d1, d2)
		}
		if d1.Orphans > 0 {
			sawOrphan = true
		}
	}
	if !sawOrphan {
		t.Error("no seed produced an orphaned ULP; the kill path went unexercised")
	}
}

// TestChaosFaultFreeBaseline: a chaos run with an empty spec list is a
// plain deterministic workload — zero injections, zero orphans.
func TestChaosFaultFreeBaseline(t *testing.T) {
	cfg := chaos.Config{Seed: 42, Specs: []fault.Spec{}, Idle: blt.BusyWait}
	d, err := chaos.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d.Injections != 0 || d.Orphans != 0 {
		t.Errorf("fault-free run: injections=%d orphans=%d, want 0/0", d.Injections, d.Orphans)
	}
}

// everyPointCount is a count probe spec attached at every attach
// point: an observer at the points whose verdicts decide (fault:site,
// task:admit, task:restart, ...) must decide nothing.
func everyPointCount() string {
	names := make([]string, 0, len(probe.Points()))
	for _, p := range probe.Points() {
		names = append(names, p.String())
	}
	return "count:points=" + strings.Join(names, "+")
}

// TestChaosProbesPreserveDigest is the byte-identity guard for the
// probe plane: observe-only stock probes (fire counters at every attach
// point, an SLO aggregator with a generous bound) attached to a chaos
// run must reproduce the bare run's digest exactly — attaching
// observability must not move a single event. A throttle probe, by
// contrast, is *supposed* to perturb the schedule; the contract there is
// that the perturbed digest is still a pure function of the seed.
func TestChaosProbesPreserveDigest(t *testing.T) {
	observe, err := probe.ParseSpecs(everyPointCount() + ";slo:p99_us=1000000")
	if err != nil {
		t.Fatal(err)
	}
	throttle, err := probe.ParseSpecs("throttle:task=t,interval_us=200")
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 3; seed++ {
		bare := chaos.Config{Seed: seed, Idle: blt.BusyWait}
		d0, err := chaos.Run(bare)
		if err != nil {
			t.Fatalf("seed %d bare: %v", seed, err)
		}
		probed := bare
		probed.Probes = observe
		d1, err := chaos.Run(probed)
		if err != nil {
			t.Fatalf("seed %d probed: %v", seed, err)
		}
		if !d0.Equal(d1) {
			t.Fatalf("seed %d: observe probes perturbed the digest:\n  bare:   %s\n  probed: %s",
				seed, d0, d1)
		}
		slowed := bare
		slowed.Probes = throttle
		d2, err := chaos.Run(slowed)
		if err != nil {
			t.Fatalf("seed %d throttled: %v", seed, err)
		}
		d3, err := chaos.Run(slowed)
		if err != nil {
			t.Fatalf("seed %d throttled rerun: %v", seed, err)
		}
		if !d2.Equal(d3) {
			t.Fatalf("seed %d: throttled digest nondeterministic:\n  run1: %s\n  run2: %s",
				seed, d2, d3)
		}
	}
}

// TestChaosSLOOracleFails: an unsatisfiable SLO bound must fail the
// chaos run through the probe's post-run check, like any other
// invariant violation.
func TestChaosSLOOracleFails(t *testing.T) {
	specs, err := probe.ParseSpecs("slo:p99_us=1")
	if err != nil {
		t.Fatal(err)
	}
	cfg := chaos.Config{Seed: 7, Idle: blt.BusyWait, Probes: specs}
	if _, err := chaos.Run(cfg); err == nil {
		t.Fatal("chaos run passed despite a 1us p99 bound on every syscall")
	} else if !strings.Contains(err.Error(), "SLO") {
		t.Errorf("failure should come from the SLO check, got: %v", err)
	}
}
