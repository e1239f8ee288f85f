package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/bench"
	"repro/internal/blt"
	"repro/internal/chaos"
	"repro/internal/fault"
	"repro/internal/planes"
	"repro/internal/probe"
	"repro/internal/sim"
)

// exec parses args with ulpsim's flag set and runs the mode they
// select.
func exec(t *testing.T, args ...string) error {
	t.Helper()
	c, err := parseFlags(args, flag.ContinueOnError)
	if err != nil {
		t.Fatalf("parse %q: %v", args, err)
	}
	return c.exec()
}

// modes are the flags that select each mode, with the supervisor on in
// the two that install it.
var modes = map[string][]string{
	"run":     {"-supervise"},
	"chaos":   {"-chaos", "-supervise"},
	"explore": {"-explore"},
}

// captureStdout runs fn and returns what it printed to stdout.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	done := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		done <- string(b)
	}()
	fn()
	os.Stdout = stdout
	w.Close()
	return <-done
}

// TestNegativeFlagsRejected: a negative (or NaN) numeric flag is an
// error before any engine starts, so nothing is printed. Unchecked,
// -write-size -1 and -compute-us -1 panicked inside the simulation,
// -prog-cores -1 before it, and -ops -2, -trace-cap -1,
// -stall-horizon -5 and -explore-runs -1 ran as if valid.
func TestNegativeFlagsRejected(t *testing.T) {
	cases := []struct {
		mode, flag, val string
	}{
		{"run", "-ulps", "-1"},
		{"run", "-ops", "-2"},
		{"run", "-prog-cores", "-1"},
		{"run", "-syscall-cores", "-1"},
		{"run", "-compute-us", "-1"},
		{"run", "-compute-us", "NaN"},
		{"run", "-write-size", "-1"},
		{"run", "-trace-cap", "-1"},
		{"run", "-preempt-us", "-1"},
		{"run", "-stall-horizon", "-5"},
		{"chaos", "-ulps", "-1"},
		{"chaos", "-ops", "-2"},
		{"chaos", "-trace-cap", "-1"},
		{"chaos", "-stall-horizon", "-5"},
		{"explore", "-explore-runs", "-1"},
		{"explore", "-explore-depth", "-1"},
	}
	for _, c := range cases {
		args := append(append([]string(nil), modes[c.mode]...), c.flag, c.val)
		var err error
		out := captureStdout(t, func() { err = exec(t, args...) })
		if err == nil || !strings.HasPrefix(err.Error(), c.flag+" ") {
			t.Errorf("%s %v: err = %v, want one naming %s", c.mode, args, err, c.flag)
		}
		if out != "" {
			t.Errorf("%s %v ran before failing:\n%s", c.mode, args, out)
		}
	}
}

// TestDefaultFlagsRun: the defaults pass the check and run.
func TestDefaultFlagsRun(t *testing.T) {
	for _, mode := range []string{"run", "chaos", "explore"} {
		var err error
		out := captureStdout(t, func() { err = exec(t, modes[mode]...) })
		if err != nil || out == "" {
			t.Errorf("%s defaults: err = %v, output:\n%s", mode, err, out)
		}
	}
}

// shellArgs splits a printed repro line into its arguments the way a
// POSIX shell does with the quoting these lines use (single quotes
// group), and drops the leading "ulpsim".
func shellArgs(t *testing.T, line string) []string {
	t.Helper()
	var args []string
	var word strings.Builder
	inWord, quoted := false, false
	for _, r := range line {
		switch {
		case r == '\'':
			quoted, inWord = !quoted, true
		case r == ' ' && !quoted:
			if inWord {
				args = append(args, word.String())
				word.Reset()
				inWord = false
			}
		default:
			word.WriteRune(r)
			inWord = true
		}
	}
	if inWord {
		args = append(args, word.String())
	}
	if quoted || len(args) == 0 || args[0] != "ulpsim" {
		t.Fatalf("not a ulpsim command line: %q", line)
	}
	return args[1:]
}

// TestReproLinesParseBack: the plane flags each repro line prints, the
// chaos line and the explorer's, parse back through ulpsim's own flag
// set to the options the run had. The explorer's line used to drop
// -sched-policy and -probe, so a failure found under a policy or a
// throttle replayed under stock dispatch.
func TestReproLinesParseBack(t *testing.T) {
	parse := func(line string) planes.Options {
		c, err := parseFlags(shellArgs(t, line), flag.ContinueOnError)
		if err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		o, err := c.planeOptions()
		if err != nil {
			t.Fatalf("options of %q: %v", line, err)
		}
		return o
	}
	probes, err := probe.ParseSpecs("count:points=syscall:enter+fault:site;slo:syscall=open,p99_us=800")
	if err != nil {
		t.Fatal(err)
	}
	faults, err := fault.ParseSpecs("kc_kill:nth=3,task=kc.chaos;sched_delay:prob=0.1,delay_us=20")
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range []planes.Options{
		{Seed: 1, Faults: chaos.DefaultSpecs()},
		{Seed: 42, Faults: []fault.Spec{}},
		{Seed: 7, Faults: faults, Supervise: true, StallHorizon: 12500 * sim.Nanosecond,
			Probes: probes, Policy: "tenant:weights=kc.u0.0:3"},
		{Seed: 9, Faults: chaos.DefaultSpecs(), Supervise: true, Policy: "fifo"},
	} {
		line := chaos.ReproCommand(chaos.Config{Seed: o.Seed, Specs: o.Faults,
			Supervise: o.Supervise, StallHorizon: o.StallHorizon, Probes: o.Probes, SchedPolicy: o.Policy})
		if got := parse(line); !reflect.DeepEqual(got, o) {
			t.Errorf("%s\nparses back to %+v, want %+v", line, got, o)
		}
	}
	for _, o := range []planes.Options{{}, {Policy: "cosched"}, {Probes: probes, Policy: "locality"}} {
		for _, trace := range [][]int{{1, 0, 2}, nil} {
			line := exploreRepro("blt-mn", "Albireo", blt.Blocking, trace, o)
			if c, err := parseFlags(shellArgs(t, line), flag.ContinueOnError); err != nil || c.exploreTrace == "" {
				t.Errorf("%s: no -explore-trace to replay (%v)", line, err)
			}
			if got := parse(line); got.Policy != o.Policy || !reflect.DeepEqual(got.Probes, o.Probes) {
				t.Errorf("%s\nparses back to %+v, want %+v", line, got, o)
			}
		}
	}
}

// TestChaosFaultFreeReproDigest: the repro of a fault-free chaos run,
// run through ulpsim, gives that run's digest. An explicitly empty
// -faults used to mean the default mix, so it replayed a faulted run.
func TestChaosFaultFreeReproDigest(t *testing.T) {
	cfg := chaos.Config{Seed: 42, Specs: []fault.Spec{}, Idle: blt.BusyWait}
	d, err := chaos.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	line := chaos.ReproCommand(cfg)
	out := captureStdout(t, func() { err = exec(t, shellArgs(t, line)...) })
	if err != nil {
		t.Fatalf("%s: %v", line, err)
	}
	if want := "digest         " + d.String() + "\n"; !strings.Contains(out, want) {
		t.Errorf("%s printed\n%s\nwant the line %q", line, out, want)
	}
}

// ignored lists, per mode, every flag that mode does not read.
var ignored = map[string][]string{
	"run": {"explore-scenario", "explore-policy", "explore-runs", "explore-depth", "explore-trace"},
	"chaos": {"prog-cores", "syscall-cores", "compute-us", "write-size", "workstealing", "timeline",
		"preempt-us", "explore-scenario", "explore-policy", "explore-runs", "explore-depth", "explore-trace"},
	"explore": {"ulps", "ops", "signals", "trace", "trace-cap", "trace-format", "metrics", "supervise",
		"stall-horizon", "faults", "prog-cores", "syscall-cores", "compute-us", "write-size",
		"workstealing", "timeline", "preempt-us"},
}

// TestIgnoredFlagsRejected: in each mode, every flag, given at its
// default value, passes the mode check exactly when the mode reads it.
// An ignored one is an error naming the flag and the mode before
// anything runs. Unchecked, -explore -faults 'kc_kill:nth=1' -supervise
// explored with neither plane and reported that all oracles held.
func TestIgnoredFlagsRejected(t *testing.T) {
	for mode, sel := range modes {
		modeName := map[string]string{"run": "scenario", "chaos": "-chaos", "explore": "-explore"}[mode]
		(&cli{}).flagSet(flag.ContinueOnError).VisitAll(func(f *flag.Flag) {
			args := append(append([]string(nil), sel...), "-"+f.Name+"="+f.DefValue)
			c, err := parseFlags(args, flag.ContinueOnError)
			if err != nil {
				t.Fatalf("parse %q: %v", args, err)
			}
			if !slices.Contains(ignored[mode], f.Name) {
				if _, err := c.mode(); err != nil {
					t.Errorf("%s mode rejects -%s, which it reads: %v", mode, f.Name, err)
				}
				return
			}
			out := captureStdout(t, func() { err = c.exec() })
			if err == nil || !strings.Contains(err.Error(), "-"+f.Name+" ") || !strings.Contains(err.Error(), " "+modeName+" mode") {
				t.Errorf("%q: err = %v, want one naming -%s and %s", args, err, f.Name, modeName)
			}
			if out != "" {
				t.Errorf("%q ran before failing:\n%s", args, out)
			}
		})
	}
	if err := exec(t, "-chaos", "-explore"); err == nil || !strings.Contains(err.Error(), "-chaos and -explore") {
		t.Errorf("-chaos -explore: err = %v", err)
	}
}

// TestMachineAnyCase: every mode takes -machine in any case. Only
// -explore used to; the scenario and chaos modes rejected "wallaby".
func TestMachineAnyCase(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-machine", "wallaby"}, "machine        Wallaby (x86_64, 16 cores"},
		{[]string{"-chaos", "-machine", "ALBIREO"}, "machine        Albireo (aarch64), idle="},
		{[]string{"-explore", "-machine", "albireo"}, "verdict        all oracles hold"},
	} {
		var err error
		out := captureStdout(t, func() { err = exec(t, c.args...) })
		if err != nil || !strings.Contains(out, c.want) {
			t.Errorf("%q: err = %v, output lacks %q:\n%s", c.args, err, c.want, out)
		}
	}
}

// TestScenarioIsA5: the scenario mode runs A5's program, so with A5's
// deployment (2 program cores, 2 system-call cores, blocking idle, O=0)
// it prints the makespan of that row of results/ulpbench.txt, 548.4us.
// Its own image, with an 8-B data symbol, printed 548.3us.
func TestScenarioIsA5(t *testing.T) {
	pts, err := bench.Fig6Scenario(arch.Wallaby(), []int{2}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	out := captureStdout(t, func() {
		err = exec(t, "-idle", "blocking", "-ulps", "2", "-prog-cores", "2", "-syscall-cores", "2")
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{fmt.Sprintf("makespan       %v\n", pts[0].Makespan), "makespan       548.4us\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}
