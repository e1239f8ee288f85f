// ulpsim runs a configurable ULP-PiP scenario on a simulated machine and
// reports scheduling statistics — optionally with a full event trace.
//
// Usage:
//
//	ulpsim -machine Wallaby -ulps 8 -prog-cores 2 -syscall-cores 2 \
//	       -ops 16 -compute-us 5 -idle blocking -trace trace.txt
//
// With -chaos it instead runs the seeded protocol fuzzer: a random (but
// seed-determined) operation mix under an injected fault schedule, run
// twice and checked for a bit-identical digest. This is how a failing
// seed reported by the chaos tests is replayed:
//
//	ulpsim -chaos -seed 7 -machine Albireo -idle blocking \
//	       -faults 'futex_lost_wake:prob=0.05;kc_kill:prob=0.002,task=kc.chaos'
//
// With -explore it runs the controlled-scheduling explorer: same-instant
// event ties are resolved by a policy (seeded random walks or bounded
// exhaustive DFS) instead of FIFO, and every explored schedule is checked
// against the protocol's invariant oracles. A failing schedule prints a
// shrunk decision trace and the command that replays it:
//
//	ulpsim -explore -explore-scenario blt-mn -explore-policy dfs \
//	       -explore-depth 4 -explore-runs 256
//
// -cpuprofile and -memprofile write host-time profiles of the run (a CPU
// profile over it, a heap profile after it) for go tool pprof.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/arch"
	"repro/internal/blt"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/fault"
	"repro/internal/fs"
	"repro/internal/hostprof"
	"repro/internal/kernel"
	"repro/internal/loader"
	"repro/internal/metrics"
	"repro/internal/probe"
	"repro/internal/schedpolicy"
	"repro/internal/sim"
	"repro/internal/supervise"
	"repro/internal/timeline"
)

func main() {
	var (
		machineName  = flag.String("machine", "Wallaby", "Wallaby (x86_64) or Albireo (aarch64)")
		ulps         = flag.Int("ulps", 4, "number of ULPs to spawn")
		progCores    = flag.Int("prog-cores", 2, "cores running user code (schedulers)")
		syscallCores = flag.Int("syscall-cores", 2, "cores dedicated to system-calls")
		ops          = flag.Int("ops", 8, "bracketed open-write-close operations per ULP")
		computeUS    = flag.Float64("compute-us", 5, "computation between operations [us]")
		writeSize    = flag.Int("write-size", 4096, "write buffer size [bytes]")
		idle         = flag.String("idle", "busywait", "KC idle policy: busywait or blocking")
		signals      = flag.String("signals", "fcontext", "context switch style: fcontext or ucontext")
		tracePath    = flag.String("trace", "", "write the event trace to this file")
		traceCap     = flag.Int("trace-cap", 4096, "max retained trace events")
		traceFormat  = flag.String("trace-format", "text", "trace file format: text or chrome (Perfetto-loadable JSON)")
		showMetrics  = flag.Bool("metrics", false, "print the deterministic metrics dump after the run")
		workSteal    = flag.Bool("workstealing", false, "idle schedulers steal ready UCs from peers")
		showTimeline = flag.Bool("timeline", false, "print per-core utilization and an ASCII Gantt chart")
		preemptUS    = flag.Float64("preempt-us", 0, "Shinjuku-style ULT preemption quantum [us], 0 = off")
		superviseOn  = flag.Bool("supervise", false, "install the supervision plane (stall/deadlock watchdog, restart budgets)")
		stallUS      = flag.Float64("stall-horizon", 0, "supervision stall horizon [us], 0 = default")
		chaosMode    = flag.Bool("chaos", false, "run the seeded chaos fuzzer instead of the scenario workload")
		seed         = flag.Uint64("seed", 1, "fault plane / chaos / exploration seed")
		faults       = flag.String("faults", "", "fault specs, e.g. 'futex_lost_wake:prob=0.01;kc_kill:nth=3,task=kc.t2' (in -chaos mode, empty means the default mix)")
		exploreMode  = flag.Bool("explore", false, "run the schedule explorer instead of the scenario workload")
		exploreScen  = flag.String("explore-scenario", "pingpong", "exploration scenario: "+strings.Join(explore.ScenarioNames(), ", "))
		explorePol   = flag.String("explore-policy", "random", "exploration policy: random (seeded walks) or dfs (bounded exhaustive)")
		exploreRuns  = flag.Int("explore-runs", 64, "number of walks (random) or run budget (dfs, 0 = unbounded)")
		exploreDepth = flag.Int("explore-depth", 4, "dfs decision-depth cap")
		exploreTrace = flag.String("explore-trace", "", "replay this comma-separated decision trace instead of exploring")
		probeStr     = flag.String("probe", "", "stock probe specs, e.g. 'throttle:task=worker,interval_us=50;slo:p99_us=800' (see -probe-list)")
		probeList    = flag.Bool("probe-list", false, "list attach points and stock probes, then exit")
		schedPolicy  = flag.String("sched-policy", "", "scheduler policy: "+strings.Join(schedpolicy.Names(), "|")+" (with optional :params; empty = stock dispatch)")
		cpuProfile   = flag.String("cpuprofile", "", "write a host CPU profile of the run to this file (go tool pprof)")
		memProfile   = flag.String("memprofile", "", "write a host heap profile to this file after the run (go tool pprof)")
	)
	flag.Parse()
	if *probeList {
		fmt.Print(probe.ListStock())
		return
	}
	if *schedPolicy != "" {
		// Validate once up front; each run mode parses its own fresh
		// instance so stateful policies never span simulations.
		if _, perr := schedpolicy.New(*schedPolicy); perr != nil {
			fmt.Fprintln(os.Stderr, "ulpsim:", perr)
			os.Exit(1)
		}
	}
	stop, err := hostprof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ulpsim:", err)
		os.Exit(1)
	}
	if *traceFormat != "text" && *traceFormat != "chrome" {
		err = fmt.Errorf("unknown trace format %q (want text or chrome)", *traceFormat)
	} else if *chaosMode {
		err = runChaos(*machineName, *ulps, *ops, *idle, *signals, *seed, *faults,
			*tracePath, *traceCap, *traceFormat, *showMetrics, *superviseOn, *stallUS, *probeStr, *schedPolicy)
	} else if *exploreMode {
		err = runExplore(*machineName, *idle, *exploreScen, *explorePol,
			*exploreRuns, *exploreDepth, *seed, *exploreTrace, *probeStr, *schedPolicy)
	} else {
		err = run(*machineName, *ulps, *progCores, *syscallCores, *ops,
			*computeUS, *writeSize, *idle, *signals, *tracePath, *traceCap,
			*traceFormat, *showMetrics, *workSteal, *preemptUS, *showTimeline,
			*seed, *faults, *superviseOn, *stallUS, *probeStr, *schedPolicy)
	}
	if perr := stop(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ulpsim:", err)
		os.Exit(1)
	}
}

// writeTrace renders the tracer to path in the selected format and
// prints the retained/dropped summary. The dropped line only appears
// when the bounded ring actually evicted events.
func writeTrace(tracer *sim.Tracer, path, format, process string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if format == "chrome" {
		err = tracer.DumpChrome(f, process)
	} else {
		err = tracer.Dump(f)
	}
	if err != nil {
		return err
	}
	fmt.Printf("trace          %d events retained (of %d) -> %s\n",
		tracer.Len(), tracer.Total(), path)
	if d := tracer.Dropped(); d > 0 {
		fmt.Printf("trace          dropped=%d (raise -trace-cap to keep more)\n", d)
	}
	return nil
}

// dumpMetrics prints the registry's deterministic dump to stdout.
func dumpMetrics(reg *metrics.Registry) error {
	fmt.Println("metrics        (same seed => byte-identical dump)")
	return reg.Dump(os.Stdout)
}

// runChaos is the -chaos mode: one verified chaos run, then a rerun to
// prove the digest is a pure function of (seed, faults). The tracer and
// metrics registry attach to the first run only — neither charges
// virtual time, so the second (bare) run must still produce the same
// digest.
func runChaos(machineName string, ulps, ops int, idle, signals string, seed uint64, faultsStr string,
	tracePath string, traceCap int, traceFormat string, showMetrics bool,
	superviseOn bool, stallUS float64, probeStr, schedPolicy string) error {
	if err := checkNonNegative(numFlag{"ulps", float64(ulps)}, numFlag{"ops", float64(ops)},
		numFlag{"trace-cap", float64(traceCap)}, numFlag{"stall-horizon", stallUS}); err != nil {
		return err
	}
	m := arch.ByName(machineName)
	if m == nil {
		return fmt.Errorf("unknown machine %q (want Wallaby or Albireo)", machineName)
	}
	idlePolicy, sigMode, err := parseModes(idle, signals)
	if err != nil {
		return err
	}
	specs := chaos.DefaultSpecs()
	if faultsStr != "" {
		if specs, err = fault.ParseSpecs(faultsStr); err != nil {
			return err
		}
	}
	var probes []probe.Spec
	if probeStr != "" {
		if probes, err = probe.ParseSpecs(probeStr); err != nil {
			return err
		}
	}
	cfg := chaos.Config{
		Machine: m, Seed: seed, Specs: specs,
		ULPs: ulps, Ops: ops, Idle: idlePolicy, SigMode: sigMode,
		Supervise: superviseOn, StallHorizon: sim.FromUS(stallUS),
		Probes: probes, SchedPolicy: schedPolicy,
	}
	cfg1 := cfg
	var tracer *sim.Tracer
	if tracePath != "" {
		tracer = sim.NewTracer(traceCap)
		cfg1.Trace = tracer
	}
	var reg *metrics.Registry
	if showMetrics {
		reg = metrics.NewRegistry()
		cfg1.Metrics = reg
	}
	d1, stats, err := chaos.RunWithStats(cfg1)
	if err != nil {
		return err
	}
	d2, err := chaos.Run(cfg)
	if err != nil {
		return fmt.Errorf("rerun: %w", err)
	}
	fmt.Printf("machine        %s (%s), idle=%s, signals=%s\n", m.Name, m.Arch, idlePolicy, sigMode)
	fmt.Printf("workload       %d ULPs x %d ops, seed %d\n", ulps, ops, seed)
	fmt.Printf("digest         %s\n", d1)
	for _, line := range stats {
		if rest, ok := strings.CutPrefix(line, "probe "); ok {
			fmt.Printf("probe          %s\n", rest)
		} else {
			fmt.Printf("fault          %s\n", line)
		}
	}
	if !d1.Equal(d2) {
		return fmt.Errorf("NONDETERMINISTIC:\n  run1: %s\n  run2: %s\nrepro: %s",
			d1, d2, chaos.ReproCommand(cfg))
	}
	fmt.Printf("determinism    rerun digest identical\n")
	fmt.Printf("repro          %s\n", chaos.ReproCommand(cfg))
	if tracer != nil {
		if err := writeTrace(tracer, tracePath, traceFormat, "chaos "+m.Name); err != nil {
			return err
		}
	}
	if reg != nil {
		return dumpMetrics(reg)
	}
	return nil
}

// runExplore is the -explore mode: controlled-scheduling runs of a named
// scenario under an exploration policy, every run checked against the
// invariant oracles. A failing schedule is shrunk to its minimal
// decision prefix and printed with the exact replay command; -explore-trace
// replays such a prefix deterministically.
func runExplore(machineName, idle, scenario, policyStr string,
	runs, depth int, seed uint64, traceStr, probeStr, schedPolicy string) error {
	if err := checkNonNegative(numFlag{"explore-runs", float64(runs)},
		numFlag{"explore-depth", float64(depth)}); err != nil {
		return err
	}
	if probeStr != "" {
		specs, err := probe.ParseSpecs(probeStr)
		if err != nil {
			return err
		}
		explore.ProbeSpecs = specs
	}
	explore.PolicySpec = schedPolicy
	var mk func() *arch.Machine
	switch strings.ToLower(machineName) {
	case "wallaby":
		mk = arch.Wallaby
	case "albireo":
		mk = arch.Albireo
	default:
		return fmt.Errorf("unknown machine %q (want Wallaby or Albireo)", machineName)
	}
	idlePolicy, _, err := parseModes(idle, "fcontext")
	if err != nil {
		return err
	}
	s, err := explore.ByName(scenario, mk, idlePolicy)
	if err != nil {
		return err
	}
	fmt.Printf("scenario       %s on %s, idle=%s\n", s.Name, machineName, idlePolicy)
	if traceStr != "" {
		prefix, err := explore.ParseTrace(traceStr)
		if err != nil {
			return err
		}
		ds, err := explore.Replay(s, prefix)
		fmt.Printf("replay         prefix %s -> %d decisions\n", explore.TraceString(prefix), len(ds))
		if err != nil {
			return fmt.Errorf("oracle violation reproduced: %w", err)
		}
		fmt.Printf("verdict        all oracles hold on the replayed schedule\n")
		return nil
	}
	pol, err := explore.ParsePolicy(policyStr)
	if err != nil {
		return err
	}
	res := explore.Explore(s, explore.Config{Policy: pol, Runs: runs, Depth: depth, Seed: seed})
	fmt.Printf("policy         %s (runs=%d depth=%d seed=%d)\n", pol, runs, depth, seed)
	fmt.Printf("explored       %d runs, %d decision points, max branching %d\n",
		res.Runs, res.Decisions, res.MaxWidth)
	if pol == explore.DFS {
		if res.Complete {
			fmt.Printf("coverage       bounded search space exhausted\n")
		} else {
			fmt.Printf("coverage       run budget hit before exhausting the space\n")
		}
	}
	if f := res.Failure; f != nil {
		fmt.Printf("FAILURE        %s\n", f.Err)
		fmt.Printf("trace          %s (run %d, seed %d)\n", explore.TraceString(f.Trace), f.Run, f.Seed)
		fmt.Printf("shrunk         %s\n", explore.TraceString(f.Shrunk))
		fmt.Printf("repro          ulpsim -explore -explore-scenario %s -machine %s -idle %s -explore-trace %s\n",
			s.Name, machineName, idlePolicy, explore.TraceString(f.Shrunk))
		return fmt.Errorf("oracle violation after %d runs", res.Runs)
	}
	fmt.Printf("verdict        all oracles hold on every explored schedule\n")
	return nil
}

// parseModes maps the -idle and -signals flag values. Case-insensitive,
// so a chaos repro command (which prints the policies' String forms)
// pastes back verbatim.
func parseModes(idle, signals string) (blt.IdlePolicy, core.SignalMode, error) {
	idlePolicy := blt.BusyWait
	switch strings.ToLower(idle) {
	case "busywait":
	case "blocking":
		idlePolicy = blt.Blocking
	default:
		return 0, 0, fmt.Errorf("unknown idle policy %q", idle)
	}
	sigMode := core.FcontextMode
	switch signals {
	case "fcontext":
	case "ucontext":
		sigMode = core.UcontextMode
	default:
		return 0, 0, fmt.Errorf("unknown signal mode %q", signals)
	}
	return idlePolicy, sigMode, nil
}

func run(machineName string, ulps, progCores, syscallCores, ops int,
	computeUS float64, writeSize int, idle, signals, tracePath string, traceCap int,
	traceFormat string, showMetrics bool,
	workSteal bool, preemptUS float64, showTimeline bool, seed uint64, faultsStr string,
	superviseOn bool, stallUS float64, probeStr, schedPolicy string) error {
	if err := checkNonNegative(numFlag{"ulps", float64(ulps)}, numFlag{"ops", float64(ops)},
		numFlag{"prog-cores", float64(progCores)}, numFlag{"syscall-cores", float64(syscallCores)},
		numFlag{"compute-us", computeUS}, numFlag{"write-size", float64(writeSize)},
		numFlag{"trace-cap", float64(traceCap)}, numFlag{"preempt-us", preemptUS},
		numFlag{"stall-horizon", stallUS}); err != nil {
		return err
	}
	m := arch.ByName(machineName)
	if m == nil {
		return fmt.Errorf("unknown machine %q (want Wallaby or Albireo)", machineName)
	}
	if progCores+syscallCores > m.Cores() {
		return fmt.Errorf("%d cores requested, machine has %d", progCores+syscallCores, m.Cores())
	}
	idlePolicy, sigMode, err := parseModes(idle, signals)
	if err != nil {
		return err
	}

	e := sim.New()
	var tracer *sim.Tracer
	if tracePath != "" {
		tracer = sim.NewTracer(traceCap)
		e.SetTracer(tracer)
	}
	k := kernel.New(e, m)
	if err := schedpolicy.Install(k, schedPolicy); err != nil {
		return err
	}
	var reg *metrics.Registry
	if showMetrics {
		reg = metrics.NewRegistry()
		k.SetMetrics(reg)
	}
	var plane *fault.Plane
	if faultsStr != "" {
		specs, err := fault.ParseSpecs(faultsStr)
		if err != nil {
			return err
		}
		plane = fault.NewPlane(seed, specs)
		plane.Attach(k.Probes())
	}
	var atts []*probe.Attachment
	if probeStr != "" {
		specs, err := probe.ParseSpecs(probeStr)
		if err != nil {
			return err
		}
		atts = probe.AttachSpecs(k.Probes(), specs)
	}
	var rec *timeline.Recorder
	if showTimeline {
		rec = timeline.New()
		rec.Attach(k.Probes())
	}
	var sup *supervise.Plane
	if superviseOn {
		sup = supervise.New(k, supervise.Config{
			StallHorizon: sim.FromUS(stallUS),
			Seed:         seed,
		})
		sup.Install()
	}

	cfg := core.Config{
		ProgCores:      seq(0, progCores),
		SyscallCores:   seq(progCores, syscallCores),
		Idle:           idlePolicy,
		Signals:        sigMode,
		Audit:          true,
		WorkStealing:   workSteal,
		PreemptQuantum: sim.FromUS(preemptUS),
	}

	worker := &loader.Image{
		Name: "worker", PIE: true, TextSize: 4096,
		Symbols: []loader.Symbol{
			{Name: "progress", Size: 8},
			{Name: "errno", Size: 8, TLS: true},
		},
		Main: func(envI interface{}) int {
			env := envI.(*core.Env)
			buf := make([]byte, writeSize)
			for i := 0; i < ops; i++ {
				env.Compute(sim.FromUS(computeUS))
				env.Exec(func(kc *kernel.Task) {
					fd, err := kc.Open(fmt.Sprintf("/out.%d", env.U.Rank),
						fs.OCreate|fs.OWrOnly|fs.OTrunc)
					if err != nil {
						return // injected fault: skip this op
					}
					kc.Write(fd, buf, true)
					kc.Close(fd)
				})
				env.Yield()
			}
			return 0
		},
	}

	var makespan sim.Duration
	var statuses []int
	var violations int
	var rtRef *core.Runtime
	if _, err := core.Boot(k, cfg, func(rt *core.Runtime) int {
		rtRef = rt
		start := e.Now()
		for i := 0; i < ulps; i++ {
			if _, err := rt.Spawn(worker, core.SpawnOpts{Scheduler: -1, StartDecoupled: true}); err != nil {
				panic(err)
			}
		}
		var err error
		statuses, err = rt.WaitAll()
		if err != nil {
			panic(err)
		}
		makespan = e.Now().Sub(start)
		violations = len(rt.Violations())
		rt.Shutdown()
		return 0
	}); err != nil {
		return err
	}
	if err := e.Run(); err != nil {
		return err
	}

	fmt.Printf("machine        %s (%s, %d cores @ %.1f GHz)\n", m.Name, m.Arch, m.Cores(), m.ClockGHz)
	fmt.Printf("deployment     %d prog + %d syscall cores, idle=%s, signals=%s, preempt=%v\n",
		progCores, syscallCores, idlePolicy, sigMode, sim.FromUS(preemptUS))
	fmt.Printf("workload       %d ULPs x %d ops (%d B writes, %.1f us compute)\n",
		ulps, ops, writeSize, computeUS)
	fmt.Printf("makespan       %v\n", makespan)
	totalOps := float64(ulps * ops)
	fmt.Printf("throughput     %.1f ops/ms\n", totalOps/(float64(makespan)/1e9))
	fmt.Printf("exit statuses  %v\n", statuses)
	fmt.Printf("consistency    %d violations (audited)\n", violations)
	fmt.Printf("kernel         %d syscalls, %d kernel context switches\n",
		k.Syscalls(), k.ContextSwitches())
	if plane != nil {
		fmt.Printf("injections     %d (seed %d)\n", plane.Injections(), seed)
		for _, line := range plane.Stats() {
			fmt.Printf("fault          %s\n", line)
		}
	}
	if sup != nil {
		fmt.Printf("supervision    %s\n", sup.Summary())
	}
	var sloErr error
	for _, a := range atts {
		if a.Report != nil {
			fmt.Printf("probe          %s\n", a.Report())
		}
		if a.Check != nil {
			if err := a.Check(); err != nil {
				fmt.Printf("probe          CHECK FAILED: %v\n", err)
				sloErr = err
			}
		}
	}
	for _, s := range rtRef.Pool().Schedulers() {
		fmt.Printf("scheduler c%-2d  %d dispatches, %d steals, %v spun idle\n",
			s.Core(), s.Dispatches(), s.Steals(), s.SpunIdle())
	}
	for i := 0; i < k.Cores(); i++ {
		if b := k.Core(i).Busy(); b > 0 {
			fmt.Printf("core %-2d        busy %v (%.1f%%)\n", i, b,
				100*float64(b)/float64(e.Now()))
		}
	}

	if showTimeline {
		fmt.Println()
		rec.Report(os.Stdout)
		fmt.Println()
		rec.Gantt(os.Stdout, 72)
	}

	if tracePath != "" {
		if err := writeTrace(tracer, tracePath, traceFormat, m.Name); err != nil {
			return err
		}
	}
	if reg != nil {
		k.FinalizeMetrics()
		if plane != nil {
			plane.PublishMetrics(reg)
		}
		if err := dumpMetrics(reg); err != nil {
			return err
		}
	}
	return sloErr
}

// numFlag is a numeric flag's name and value.
type numFlag struct {
	name string
	val  float64
}

// checkNonNegative rejects the first flag whose value is negative or
// NaN: each of them sizes, counts or times something.
func checkNonNegative(flags ...numFlag) error {
	for _, f := range flags {
		if !(f.val >= 0) {
			return fmt.Errorf("-%s %v: must be 0 or more", f.name, f.val)
		}
	}
	return nil
}

func seq(start, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = start + i
	}
	return out
}
