// ulpbench regenerates every table and figure of the paper's evaluation
// (§VI) plus the §VII ablations, on the simulated Wallaby (x86_64) and
// Albireo (AArch64) machines.
//
// Usage:
//
//	ulpbench -exp all
//	ulpbench -exp table5
//	ulpbench -exp fig7 -csv out
//	ulpbench -exp fig7 -parallel 8
//	ulpbench -exp all -json
//	ulpbench -exp ablate-idle
//	ulpbench -scale -quick
//
// Experiments, in -exp all order (bench.Experiments): table3, table4,
// table5, fig7, fig8 (the paper's §VI), ablate-idle (A1), ablate-tls
// (A2), fig6-scenario (A5), huge-pages (A8), mpi-oversub (A10); all
// runs every one.
//
// -scale runs the wait-queue/futex scale suite (spawn/join and fan-in
// WakeAll up to a million tasks, futex-table churn) instead of the
// paper experiments; -quick shrinks it to CI size (keeping one 1M
// spawn/join row). With -json it writes BENCH_scale.json rather than
// the -exp records file. It is deliberately not part of -exp all: its
// wall-clock, allocation and memory-footprint columns are
// host-dependent, and -exp all output is diffed against baselines.
//
// -parallel N fans the experiment grids out over N workers (default
// GOMAXPROCS); each job runs on its own Engine and results are collected
// by index, so the output is byte-identical at any width.
//
// -cpuprofile and -memprofile write host-time profiles of the run (a
// CPU profile over it, a heap profile after it) for go tool pprof:
//
//	ulpbench -scale -quick -runs 1 -cpuprofile scale.prof
//	go tool pprof -top -cum scale.prof
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/arch"
	"repro/internal/bench"
	"repro/internal/hostprof"
	"repro/internal/metrics"
	"repro/internal/probe"
	"repro/internal/schedpolicy"
)

const (
	jsonPath = "BENCH_ulpbench.json"
	// The scale suite writes its own snapshot: its rows are host-coloured
	// (wall, allocs, bytes per task) and must not churn the -exp records.
	scaleJSONPath = "BENCH_scale.json"
	// The chaos-at-scale suite likewise keeps its own snapshot so the
	// supervised/faulted rows never churn the base scale baseline.
	chaosScaleJSONPath = "BENCH_chaos_scale.json"
	// The contention suite (lock algorithms × contention level × ULT:KC
	// ratio) is fully virtual and deterministic, but sweeps a different
	// axis than the paper experiments, so it keeps its own snapshot too.
	contentionJSONPath = "BENCH_contention.json"
)

func main() {
	if err := ulpbench(); err != nil {
		fmt.Fprintln(os.Stderr, "ulpbench:", err)
		os.Exit(1)
	}
}

func ulpbench() (err error) {
	exp := flag.String("exp", "all", "experiment: "+expNames())
	scale := flag.Bool("scale", false, "run the wait-queue/futex scale suite instead of -exp (see doc comment)")
	contention := flag.Bool("contention", false, "run the lock-contention sweep instead of -exp (lock algorithm x threads x ULT:KC ratio)")
	chaosScale := flag.Bool("chaos", false, "with -scale: the chaos-at-scale suite (fault plane + supervision) instead of the base suite")
	quick := flag.Bool("quick", false, "with -scale: CI-sized workloads instead of the full 100k-task suite")
	runs := flag.Int("runs", 3, "repetitions per measurement (minimum is reported)")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "worker-pool width for experiment sweeps (1 = serial)")
	csvPrefix := flag.String("csv", "", "also write figure data as <prefix>-<fig>-<machine>.csv")
	jsonOut := flag.Bool("json", false, "also write machine-readable results to "+jsonPath)
	metricsJSON := flag.Bool("metrics-json", false, "aggregate kernel metrics over every run into the JSON report (implies -json)")
	reportPath := flag.String("report", "", "write a full markdown report to this file (runs everything)")
	probeStr := flag.String("probe", "", "with -scale: attach stock probes to every row's kernel (e.g. 'slo:p99_us=500'); a failing SLO check fails the row")
	schedPolicy := flag.String("sched-policy", "", "scheduler policy for every benchmark kernel: "+strings.Join(schedpolicy.Names(), "|")+" (empty = stock dispatch)")
	cpuProfile := flag.String("cpuprofile", "", "write a host CPU profile of the run to this file (go tool pprof)")
	memProfile := flag.String("memprofile", "", "write a host heap profile to this file after the run (go tool pprof)")
	flag.Parse()
	bench.Runs = *runs
	if *probeStr != "" {
		specs, err := probe.ParseSpecs(*probeStr)
		if err != nil {
			return err
		}
		bench.ProbeSpecs = specs
	}
	if *schedPolicy != "" {
		// Validate the spec once up front; bench parses a fresh instance
		// per kernel so stateful policies never leak state across runs.
		if _, err := schedpolicy.New(*schedPolicy); err != nil {
			return err
		}
		bench.SchedPolicy = *schedPolicy
	}
	bench.Parallelism = *parallel
	if *metricsJSON {
		*jsonOut = true
		bench.Metrics = metrics.NewRegistry()
	}
	stop, err := hostprof.Start(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stop(); err == nil {
			err = perr
		}
	}()
	if *reportPath != "" {
		f, err := os.Create(*reportPath)
		if err != nil {
			return err
		}
		if err := bench.Report(f); err != nil {
			f.Close()
			return err
		}
		f.Close()
		fmt.Println("report written to", *reportPath)
		return nil
	}
	var recs *[]bench.Record
	if *jsonOut {
		recs = new([]bench.Record)
	}
	switch {
	case *scale:
		err = runScale(*quick, *chaosScale, recs)
	case *contention:
		err = runContention(*quick, recs)
	default:
		err = run(os.Stdout, *exp, *csvPrefix, recs)
	}
	if err != nil || recs == nil {
		return err
	}
	if bench.Metrics != nil {
		for _, s := range bench.Metrics.Snapshot() {
			*recs = append(*recs, bench.Record{Experiment: "metrics", Series: s.Name, Ns: s.Value})
		}
	}
	path := jsonPath
	if *scale {
		path = scaleJSONPath
		if *chaosScale {
			path = chaosScaleJSONPath
		}
	}
	if *contention {
		path = contentionJSONPath
	}
	if err := bench.WriteRecordsJSON(path, *recs); err != nil {
		return err
	}
	fmt.Println("benchmark records written to", path)
	return nil
}

// runScale drives the scale suite serially over both machines (the
// wall/alloc columns read process-global counters, so no sweep here).
// With chaosScale it runs the chaos-at-scale variant: fault plane plus
// supervision, separate snapshot file.
func runScale(quick, chaosScale bool, recs *[]bench.Record) error {
	cfg := bench.FullScaleConfig()
	if quick {
		cfg = bench.QuickScaleConfig()
	}
	if chaosScale {
		cfg = bench.FullChaosScaleConfig()
		if quick {
			cfg = bench.QuickChaosScaleConfig()
		}
	}
	for _, m := range arch.Machines() {
		var r bench.ScaleResult
		var err error
		if chaosScale {
			r, err = bench.ChaosScale(m, cfg)
		} else {
			r, err = bench.Scale(m, cfg)
		}
		if err != nil {
			return err
		}
		bench.PrintScale(os.Stdout, r)
		fmt.Println()
		if recs != nil {
			*recs = append(*recs, bench.ScaleRecords(r)...)
		}
	}
	return nil
}

// runContention drives the lock-contention sweep serially over both
// machines. Every column is virtual time, so the output (and the JSON
// snapshot) is byte-deterministic; -quick selects the CI grid, a strict
// subset of the full grid with identical per-row parameters.
func runContention(quick bool, recs *[]bench.Record) error {
	cfg := bench.FullContentionConfig()
	if quick {
		cfg = bench.QuickContentionConfig()
	}
	for _, m := range arch.Machines() {
		r, err := bench.Contention(m, cfg)
		if err != nil {
			return err
		}
		bench.PrintContention(os.Stdout, r)
		fmt.Println()
		if recs != nil {
			*recs = append(*recs, bench.ContentionRecords(r)...)
		}
	}
	return nil
}

// run renders the named experiment (or, for "all", every entry of
// bench.Experiments in order) to w, exactly as `ulpbench -exp` prints
// it. With recs set it appends each experiment's records and then its
// harness row: the wall-clock and allocation cost of the harness itself,
// as opposed to the virtual-time results the experiment produces.
func run(w io.Writer, exp, csvPrefix string, recs *[]bench.Record) error {
	matched := false
	for _, x := range bench.Experiments {
		if exp != "all" && exp != x.Name {
			continue
		}
		matched = true
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		rows, err := x.Run(w, csvPrefix)
		wall := time.Since(t0)
		runtime.ReadMemStats(&after)
		if recs != nil {
			*recs = append(*recs, rows...)
			*recs = append(*recs, bench.Record{
				Experiment: x.Name, Series: "harness",
				Ns:     float64(wall.Nanoseconds()),
				Allocs: after.Mallocs - before.Mallocs,
			})
		}
		if err != nil {
			return err
		}
	}
	if !matched {
		return fmt.Errorf("unknown experiment %q (want %s)", exp, expNames())
	}
	return nil
}

// expNames lists the -exp values: every experiment, then "all".
func expNames() string {
	var names []string
	for _, x := range bench.Experiments {
		names = append(names, x.Name)
	}
	return strings.Join(append(names, "all"), "|")
}
