package main

import (
	"io"
	"math"
	"os"
	"strings"
	"testing"
)

// flags holds the numeric flag values run, runChaos and runExplore
// check.
type flags struct {
	ulps, ops, progCores, syscallCores, writeSize, traceCap int
	computeUS, preemptUS, stallUS                           float64
	exploreRuns, exploreDepth                               int
}

// defaults are the flag defaults, which run as they are.
var defaults = flags{ulps: 4, ops: 8, progCores: 2, syscallCores: 2, writeSize: 4096,
	traceCap: 4096, computeUS: 5, exploreRuns: 64, exploreDepth: 4}

func (f flags) run() error {
	return run("Wallaby", f.ulps, f.progCores, f.syscallCores, f.ops, f.computeUS, f.writeSize,
		"busywait", "fcontext", "", f.traceCap, "text", false, false, f.preemptUS, false, 1, "",
		true, f.stallUS, "", "")
}

func (f flags) chaos() error {
	return runChaos("Wallaby", f.ulps, f.ops, "busywait", "fcontext", 1, "",
		"", f.traceCap, "text", false, true, f.stallUS, "", "")
}

func (f flags) explore() error {
	return runExplore("Wallaby", "busywait", "pingpong", "random", f.exploreRuns, f.exploreDepth,
		1, "", "", "")
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
		mode string
		flag string
		set  func(*flags)
	}{
		{"run", "-ulps", func(f *flags) { f.ulps = -1 }},
		{"run", "-ops", func(f *flags) { f.ops = -2 }},
		{"run", "-prog-cores", func(f *flags) { f.progCores = -1 }},
		{"run", "-syscall-cores", func(f *flags) { f.syscallCores = -1 }},
		{"run", "-compute-us", func(f *flags) { f.computeUS = -1 }},
		{"run", "-compute-us", func(f *flags) { f.computeUS = math.NaN() }},
		{"run", "-write-size", func(f *flags) { f.writeSize = -1 }},
		{"run", "-trace-cap", func(f *flags) { f.traceCap = -1 }},
		{"run", "-preempt-us", func(f *flags) { f.preemptUS = -1 }},
		{"run", "-stall-horizon", func(f *flags) { f.stallUS = -5 }},
		{"chaos", "-ulps", func(f *flags) { f.ulps = -1 }},
		{"chaos", "-ops", func(f *flags) { f.ops = -2 }},
		{"chaos", "-trace-cap", func(f *flags) { f.traceCap = -1 }},
		{"chaos", "-stall-horizon", func(f *flags) { f.stallUS = -5 }},
		{"explore", "-explore-runs", func(f *flags) { f.exploreRuns = -1 }},
		{"explore", "-explore-depth", func(f *flags) { f.exploreDepth = -1 }},
	}
	for _, c := range cases {
		f := defaults
		c.set(&f)
		call := map[string]func() error{"run": f.run, "chaos": f.chaos, "explore": f.explore}[c.mode]
		var err error
		out := captureStdout(t, func() { err = call() })
		if err == nil || !strings.HasPrefix(err.Error(), c.flag+" ") {
			t.Errorf("%s %+v: err = %v, want one naming %s", c.mode, f, err, c.flag)
		}
		if out != "" {
			t.Errorf("%s %+v ran before failing:\n%s", c.mode, f, out)
		}
	}
}

// TestDefaultFlagsRun: the defaults pass the check and run.
func TestDefaultFlagsRun(t *testing.T) {
	for _, call := range []func() error{defaults.run, defaults.chaos, defaults.explore} {
		var err error
		out := captureStdout(t, func() { err = call() })
		if err != nil || out == "" {
			t.Errorf("defaults: err = %v, output:\n%s", err, out)
		}
	}
}
