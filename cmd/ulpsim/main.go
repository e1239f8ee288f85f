// ulpsim runs a configurable ULP-PiP scenario on a simulated machine and
// reports scheduling statistics — optionally with a full event trace.
// The scenario is ablation A5, the Fig. 6 deployment, with its sizes as
// flags: each ULP runs bench.Fig6Worker, so
// `ulpsim -idle blocking -ulps 2` prints the makespan of A5's
// 2-syscall-core, O=0 row on Wallaby.
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
// A flag that the selected mode does not read is an error, and so are
// -chaos and -explore together. -machine takes a name in any case.
//
// -cpuprofile and -memprofile write host-time profiles of the run (a CPU
// profile over it, a heap profile after it) for go tool pprof.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"repro/internal/arch"
	"repro/internal/bench"
	"repro/internal/blt"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/fault"
	"repro/internal/hostprof"
	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/planes"
	"repro/internal/probe"
	"repro/internal/schedpolicy"
	"repro/internal/sim"
	"repro/internal/timeline"
)

func main() {
	c, _ := parseFlags(os.Args[1:], flag.ExitOnError)
	if err := c.exec(); err != nil {
		fmt.Fprintln(os.Stderr, "ulpsim:", err)
		os.Exit(1)
	}
}

// cli holds ulpsim's flag values.
type cli struct {
	machine, idle, signals                        string
	ulps, progCores, syscallCores, ops, writeSize int
	computeUS, preemptUS, stallUS                 float64
	tracePath, traceFormat                        string
	traceCap                                      int
	metrics, workSteal, timeline, supervise       bool
	chaos, explore, probeList                     bool
	seed                                          uint64
	faults, probes, schedPolicy                   string
	given                                         []string // flags on the command line, even at their defaults
	exploreScen, explorePol, exploreTrace         string
	exploreRuns, exploreDepth                     int
	cpuProfile, memProfile                        string
}

// parseFlags parses args with ulpsim's flag set.
func parseFlags(args []string, handling flag.ErrorHandling) (*cli, error) {
	c := &cli{}
	set := c.flagSet(handling)
	if err := set.Parse(args); err != nil {
		return nil, err
	}
	set.Visit(func(f *flag.Flag) { c.given = append(c.given, f.Name) })
	return c, nil
}

// flagSet defines ulpsim's flags over c's fields.
func (c *cli) flagSet(handling flag.ErrorHandling) *flag.FlagSet {
	set := flag.NewFlagSet("ulpsim", handling)
	set.StringVar(&c.machine, "machine", "Wallaby", "Wallaby (x86_64) or Albireo (aarch64), in any case")
	set.IntVar(&c.ulps, "ulps", 4, "number of ULPs to spawn")
	set.IntVar(&c.progCores, "prog-cores", 2, "cores running user code (schedulers)")
	set.IntVar(&c.syscallCores, "syscall-cores", 2, "cores dedicated to system-calls")
	set.IntVar(&c.ops, "ops", 8, "bracketed open-write-close operations per ULP")
	set.Float64Var(&c.computeUS, "compute-us", 5, "computation between operations [us]")
	set.IntVar(&c.writeSize, "write-size", 4096, "write buffer size [bytes]")
	set.StringVar(&c.idle, "idle", "busywait", "KC idle policy: busywait or blocking")
	set.StringVar(&c.signals, "signals", "fcontext", "context switch style: fcontext or ucontext")
	set.StringVar(&c.tracePath, "trace", "", "write the event trace to this file")
	set.IntVar(&c.traceCap, "trace-cap", 4096, "max retained trace events")
	set.StringVar(&c.traceFormat, "trace-format", "text", "trace file format: text or chrome (Perfetto-loadable JSON)")
	set.BoolVar(&c.metrics, "metrics", false, "print the deterministic metrics dump after the run")
	set.BoolVar(&c.workSteal, "workstealing", false, "idle schedulers steal ready UCs from peers")
	set.BoolVar(&c.timeline, "timeline", false, "print per-core utilization and an ASCII Gantt chart")
	set.Float64Var(&c.preemptUS, "preempt-us", 0, "Shinjuku-style ULT preemption quantum [us], 0 = off")
	set.BoolVar(&c.supervise, "supervise", false, "install the supervision plane (stall/deadlock watchdog, restart budgets)")
	set.Float64Var(&c.stallUS, "stall-horizon", 0, "supervision stall horizon [us], 0 = default")
	set.BoolVar(&c.chaos, "chaos", false, "run the seeded chaos fuzzer instead of the scenario workload")
	set.Uint64Var(&c.seed, "seed", 1, "fault plane / chaos / exploration seed")
	set.StringVar(&c.faults, "faults", "", "fault specs, e.g. 'futex_lost_wake:prob=0.01;kc_kill:nth=3,task=kc.t2' (in -chaos mode, absent means the default mix and empty means no faults)")
	set.BoolVar(&c.explore, "explore", false, "run the schedule explorer instead of the scenario workload")
	set.StringVar(&c.exploreScen, "explore-scenario", "pingpong", "exploration scenario: "+strings.Join(explore.ScenarioNames(), ", "))
	set.StringVar(&c.explorePol, "explore-policy", "random", "exploration policy: random (seeded walks) or dfs (bounded exhaustive)")
	set.IntVar(&c.exploreRuns, "explore-runs", 64, "number of walks (random) or run budget (dfs, 0 = unbounded)")
	set.IntVar(&c.exploreDepth, "explore-depth", 4, "dfs decision-depth cap")
	set.StringVar(&c.exploreTrace, "explore-trace", "", "replay this comma-separated decision trace instead of exploring")
	set.StringVar(&c.probes, "probe", "", "stock probe specs, e.g. 'throttle:task=worker,interval_us=50;slo:p99_us=800' (see -probe-list)")
	set.BoolVar(&c.probeList, "probe-list", false, "list attach points and stock probes, then exit")
	set.StringVar(&c.schedPolicy, "sched-policy", "", "scheduler policy: "+strings.Join(schedpolicy.Names(), "|")+" (with optional :params; empty = stock dispatch)")
	set.StringVar(&c.cpuProfile, "cpuprofile", "", "write a host CPU profile of the run to this file (go tool pprof)")
	set.StringVar(&c.memProfile, "memprofile", "", "write a host heap profile to this file after the run (go tool pprof)")
	return set
}

// mode is what one ulpsim run does. Modes are bits, so that one entry
// of reads can name several.
type mode uint8

const (
	scenarioMode mode = 1 << iota
	chaosMode
	exploreMode
	anyMode = scenarioMode | chaosMode | exploreMode
)

func (m mode) String() string {
	switch m {
	case chaosMode:
		return "-chaos"
	case exploreMode:
		return "-explore"
	}
	return "scenario"
}

// reads maps each flag to the modes that read it. A flag given on the
// command line that the selected mode does not read is an error, so no
// run quietly drops a setting its user asked for.
var reads = []struct {
	modes mode
	flags []string
}{
	{anyMode, []string{"machine", "idle", "seed", "probe", "sched-policy", "probe-list",
		"chaos", "explore", "cpuprofile", "memprofile"}},
	{scenarioMode | chaosMode, []string{"ulps", "ops", "signals", "trace", "trace-cap",
		"trace-format", "metrics", "supervise", "stall-horizon", "faults"}},
	{scenarioMode, []string{"prog-cores", "syscall-cores", "compute-us", "write-size",
		"workstealing", "timeline", "preempt-us"}},
	{exploreMode, []string{"explore-scenario", "explore-policy", "explore-runs",
		"explore-depth", "explore-trace"}},
}

// modesReading returns the modes that read the named flag.
func modesReading(name string) mode {
	for _, r := range reads {
		if slices.Contains(r.flags, name) {
			return r.modes
		}
	}
	return 0
}

// mode returns the mode the flags select. It fails on -chaos together
// with -explore, and on a given flag that the mode does not read.
func (c *cli) mode() (mode, error) {
	m := scenarioMode
	switch {
	case c.chaos && c.explore:
		return 0, errors.New("-chaos and -explore select two modes: give one")
	case c.chaos:
		m = chaosMode
	case c.explore:
		m = exploreMode
	}
	for _, name := range c.given {
		if modesReading(name)&m == 0 {
			return 0, fmt.Errorf("-%s is not read in %s mode", name, m)
		}
	}
	return m, nil
}

// planeOptions turns the plane flags every mode shares into one
// planes.Options. An absent -faults leaves Faults nil, the mode's
// default (none, or the chaos mix); a given one, even empty, is the
// whole fault set.
func (c *cli) planeOptions() (planes.Options, error) {
	o := planes.Options{Policy: c.schedPolicy, Supervise: c.supervise,
		StallHorizon: sim.FromUS(c.stallUS), Seed: c.seed}
	if c.schedPolicy != "" {
		// Validate once up front; each run installs a fresh instance,
		// so stateful policies never span simulations.
		if _, err := schedpolicy.New(c.schedPolicy); err != nil {
			return o, err
		}
	}
	var err error
	if slices.Contains(c.given, "faults") {
		if o.Faults, err = fault.ParseSpecs(c.faults); err != nil {
			return o, err
		}
		if o.Faults == nil {
			o.Faults = []fault.Spec{}
		}
	}
	o.Probes, err = probe.ParseSpecs(c.probes)
	return o, err
}

// exec runs the mode the flags select.
func (c *cli) exec() (err error) {
	md, err := c.mode()
	if err != nil {
		return err
	}
	if c.probeList {
		fmt.Print(probe.ListStock())
		return nil
	}
	o, err := c.planeOptions()
	if err != nil {
		return err
	}
	m := arch.ByName(c.machine)
	if m == nil {
		return fmt.Errorf("unknown machine %q (want Wallaby or Albireo)", c.machine)
	}
	stop, err := hostprof.Start(c.cpuProfile, c.memProfile)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stop(); err == nil {
			err = perr
		}
	}()
	switch {
	case c.traceFormat != "text" && c.traceFormat != "chrome":
		return fmt.Errorf("unknown trace format %q (want text or chrome)", c.traceFormat)
	case md == chaosMode:
		return c.runChaos(o, m)
	case md == exploreMode:
		return c.runExplore(o, m)
	}
	return c.run(o, m)
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
func (c *cli) runChaos(o planes.Options, m *arch.Machine) error {
	if err := checkNonNegative(numFlag{"ulps", float64(c.ulps)}, numFlag{"ops", float64(c.ops)},
		numFlag{"trace-cap", float64(c.traceCap)}, numFlag{"stall-horizon", c.stallUS}); err != nil {
		return err
	}
	idlePolicy, sigMode, err := parseModes(c.idle, c.signals)
	if err != nil {
		return err
	}
	cfg := chaos.Config{
		Machine: m, Seed: o.Seed, Specs: o.Faults,
		ULPs: c.ulps, Ops: c.ops, Idle: idlePolicy, SigMode: sigMode,
		Supervise: o.Supervise, StallHorizon: o.StallHorizon,
		Probes: o.Probes, SchedPolicy: o.Policy,
	}
	cfg1 := cfg
	if c.tracePath != "" {
		cfg1.Trace = sim.NewTracer(c.traceCap)
	}
	if c.metrics {
		cfg1.Metrics = metrics.NewRegistry()
	}
	d1, r, err := chaos.RunWithStats(cfg1)
	if err != nil {
		return err
	}
	d2, err := chaos.Run(cfg)
	if err != nil {
		return fmt.Errorf("rerun: %w", err)
	}
	fmt.Printf("machine        %s (%s), idle=%s, signals=%s\n", m.Name, m.Arch, idlePolicy, sigMode)
	fmt.Printf("workload       %d ULPs x %d ops, seed %d\n", c.ulps, c.ops, o.Seed)
	fmt.Printf("digest         %s\n", d1)
	for _, line := range r.Faults {
		fmt.Printf("fault          %s\n", line)
	}
	for _, line := range r.Probes {
		fmt.Printf("probe          %s\n", line)
	}
	if !d1.Equal(d2) {
		return fmt.Errorf("NONDETERMINISTIC:\n  run1: %s\n  run2: %s\nrepro: %s",
			d1, d2, chaos.ReproCommand(cfg))
	}
	fmt.Printf("determinism    rerun digest identical\n")
	fmt.Printf("repro          %s\n", chaos.ReproCommand(cfg))
	if cfg1.Trace != nil {
		if err := writeTrace(cfg1.Trace, c.tracePath, c.traceFormat, "chaos "+m.Name); err != nil {
			return err
		}
	}
	if cfg1.Metrics != nil {
		return dumpMetrics(cfg1.Metrics)
	}
	return nil
}

// runExplore is the -explore mode: controlled-scheduling runs of a named
// scenario under an exploration policy, every run checked against the
// invariant oracles. A failing schedule is shrunk to its minimal
// decision prefix and printed with the exact replay command; -explore-trace
// replays such a prefix deterministically.
func (c *cli) runExplore(o planes.Options, m *arch.Machine) error {
	if err := checkNonNegative(numFlag{"explore-runs", float64(c.exploreRuns)},
		numFlag{"explore-depth", float64(c.exploreDepth)}); err != nil {
		return err
	}
	idlePolicy, _, err := parseModes(c.idle, "fcontext")
	if err != nil {
		return err
	}
	// Each explored run gets a fresh machine.
	mk := func() *arch.Machine { return arch.ByName(m.Name) }
	s, err := explore.ByName(c.exploreScen, mk, idlePolicy)
	if err != nil {
		return err
	}
	// The explorer takes the policy and the probes from the flags; a
	// scenario brings its own faults and supervision.
	o = planes.Options{Policy: o.Policy, Probes: o.Probes}
	s.Planes.Policy, s.Planes.Probes = o.Policy, o.Probes
	fmt.Printf("scenario       %s on %s, idle=%s\n", s.Name, c.machine, idlePolicy)
	if c.exploreTrace != "" {
		prefix, err := explore.ParseTrace(c.exploreTrace)
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
	pol, err := explore.ParsePolicy(c.explorePol)
	if err != nil {
		return err
	}
	res := explore.Explore(s, explore.Config{Policy: pol, Runs: c.exploreRuns, Depth: c.exploreDepth, Seed: c.seed})
	fmt.Printf("policy         %s (runs=%d depth=%d seed=%d)\n", pol, c.exploreRuns, c.exploreDepth, c.seed)
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
		fmt.Printf("repro          %s\n", exploreRepro(s.Name, c.machine, idlePolicy, f.Shrunk, o))
		return fmt.Errorf("oracle violation after %d runs", res.Runs)
	}
	fmt.Printf("verdict        all oracles hold on every explored schedule\n")
	return nil
}

// exploreRepro is the command that replays an explored schedule under
// the planes it ran with. An empty trace prints as "0", the same FIFO
// schedule: an empty -explore-trace would explore instead of replaying.
func exploreRepro(scenario, machine string, idle blt.IdlePolicy, trace []int, o planes.Options) string {
	t := explore.TraceString(trace)
	if t == "" {
		t = "0"
	}
	return fmt.Sprintf("ulpsim -explore -explore-scenario %s -machine %s -idle %s -explore-trace %s",
		scenario, machine, idle, t) + o.Flags()
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

// run is the scenario mode: ULPs run A5's program (bench.Fig6Worker)
// on a booted runtime, with the planes o selects.
func (c *cli) run(o planes.Options, m *arch.Machine) error {
	if err := checkNonNegative(numFlag{"ulps", float64(c.ulps)}, numFlag{"ops", float64(c.ops)},
		numFlag{"prog-cores", float64(c.progCores)}, numFlag{"syscall-cores", float64(c.syscallCores)},
		numFlag{"compute-us", c.computeUS}, numFlag{"write-size", float64(c.writeSize)},
		numFlag{"trace-cap", float64(c.traceCap)}, numFlag{"preempt-us", c.preemptUS},
		numFlag{"stall-horizon", c.stallUS}); err != nil {
		return err
	}
	if c.progCores+c.syscallCores > m.Cores() {
		return fmt.Errorf("%d cores requested, machine has %d", c.progCores+c.syscallCores, m.Cores())
	}
	idlePolicy, sigMode, err := parseModes(c.idle, c.signals)
	if err != nil {
		return err
	}

	if c.tracePath != "" {
		o.Trace = sim.NewTracer(c.traceCap)
	}
	if c.metrics {
		o.Metrics = metrics.NewRegistry()
	}
	e := sim.New()
	k := kernel.New(e, m)
	pl, err := planes.Install(k, o)
	if err != nil {
		return err
	}
	var rec *timeline.Recorder
	if c.timeline {
		rec = timeline.New()
		rec.Attach(k.Probes())
	}

	cfg := core.Config{
		ProgCores:      seq(0, c.progCores),
		SyscallCores:   seq(c.progCores, c.syscallCores),
		Idle:           idlePolicy,
		Signals:        sigMode,
		Audit:          true,
		WorkStealing:   c.workSteal,
		PreemptQuantum: sim.FromUS(c.preemptUS),
	}

	worker := bench.Fig6Worker(c.ops, sim.FromUS(c.computeUS), c.writeSize)

	var makespan sim.Duration
	var statuses []int
	var violations int
	var rtRef *core.Runtime
	if _, err := core.Boot(k, cfg, func(rt *core.Runtime) int {
		rtRef = rt
		start := e.Now()
		for i := 0; i < c.ulps; i++ {
			if _, err := rt.Spawn(worker, core.SpawnOpts{Scheduler: -1}); err != nil {
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
	r := pl.Finish()

	fmt.Printf("machine        %s (%s, %d cores @ %.1f GHz)\n", m.Name, m.Arch, m.Cores(), m.ClockGHz)
	fmt.Printf("deployment     %d prog + %d syscall cores, idle=%s, signals=%s, preempt=%v\n",
		c.progCores, c.syscallCores, idlePolicy, sigMode, sim.FromUS(c.preemptUS))
	fmt.Printf("workload       %d ULPs x %d ops (%d B writes, %.1f us compute)\n",
		c.ulps, c.ops, c.writeSize, c.computeUS)
	fmt.Printf("makespan       %v\n", makespan)
	totalOps := float64(c.ulps * c.ops)
	fmt.Printf("throughput     %.1f ops/ms\n", totalOps/(float64(makespan)/1e9))
	fmt.Printf("exit statuses  %v\n", statuses)
	fmt.Printf("consistency    %d violations (audited)\n", violations)
	fmt.Printf("kernel         %d syscalls, %d kernel context switches\n",
		k.Syscalls(), k.ContextSwitches())
	if pl.Fault != nil {
		fmt.Printf("injections     %d (seed %d)\n", r.Injections, o.Seed)
		for _, line := range r.Faults {
			fmt.Printf("fault          %s\n", line)
		}
	}
	if pl.Sup != nil {
		fmt.Printf("supervision    %s\n", pl.Sup.Summary())
	}
	for _, line := range r.Probes {
		fmt.Printf("probe          %s\n", line)
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

	if rec != nil {
		fmt.Println()
		rec.Report(os.Stdout)
		fmt.Println()
		rec.Gantt(os.Stdout, 72)
	}

	if o.Trace != nil {
		if err := writeTrace(o.Trace, c.tracePath, c.traceFormat, m.Name); err != nil {
			return err
		}
	}
	if o.Metrics != nil {
		if err := dumpMetrics(o.Metrics); err != nil {
			return err
		}
	}
	return r.Err
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
