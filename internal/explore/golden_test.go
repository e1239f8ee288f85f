package explore

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/blt"
	"repro/internal/leakcheck"
	"repro/internal/sim"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current code")

// traceLine summarizes a decision trace: its length, widest branching
// factor and a hash over every (N, Chosen) pair.
func traceLine(ds []Decision, err error) string {
	h := sha256.New()
	width := 0
	for _, d := range ds {
		fmt.Fprintf(h, "%d/%d,", d.N, d.Chosen)
		if d.N > width {
			width = d.N
		}
	}
	s := fmt.Sprintf("decisions=%d width=%d sha=%x", len(ds), width, h.Sum(nil)[:8])
	if err != nil {
		s += " err=" + err.Error()
	}
	return s
}

// TestExploreGolden pins every stock scenario's FIFO decision trace
// (Replay with no prefix) and one seeded random walk, on both machines
// under both idle policies, to committed hashes. The existing determinism tests compare
// a run with a rerun of the same code; this catches a change that moves
// the schedule identically every time. After every run, the goroutine
// count must be back at its baseline (leakcheck); the proc table is
// checked by drain.
func TestExploreGolden(t *testing.T) {
	if _, err := Replay(PingPong(arch.Wallaby, 4), nil); err != nil {
		t.Fatal(err)
	}
	base := leakcheck.Baseline()
	var b bytes.Buffer
	for _, mk := range []func() *arch.Machine{arch.Wallaby, arch.Albireo} {
		for _, idle := range []blt.IdlePolicy{blt.BusyWait, blt.Blocking} {
			for _, name := range ScenarioNames() {
				s, err := ByName(name, mk, idle)
				if err != nil {
					t.Fatal(err)
				}
				cell := fmt.Sprintf("%s/%s/%s", name, mk().Name, idle)
				ds, err := Replay(s, nil)
				fmt.Fprintf(&b, "%s replay %s\n", cell, traceLine(ds, err))
				leakcheck.Check(t, base)
				rng := sim.NewRNG(1)
				ds, err = runOne(s, func(_, n int) int { return rng.Intn(n) })
				fmt.Fprintf(&b, "%s random seed=1 %s\n", cell, traceLine(ds, err))
				leakcheck.Check(t, base)
				res := Explore(s, Config{Policy: RandomWalk, Runs: 2, Seed: 1})
				fmt.Fprintf(&b, "%s explore runs=%d decisions=%d width=%d failed=%v\n",
					cell, res.Runs, res.Decisions, res.MaxWidth, res.Failure != nil)
				leakcheck.Check(t, base)
			}
		}
	}
	got := b.String()
	const path = "testdata/explore.golden"
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range g {
			if i >= len(w) || g[i] != w[i] {
				wl := ""
				if i < len(w) {
					wl = w[i]
				}
				t.Fatalf("%s differs at line %d:\n  got:  %q\n  want: %q", path, i+1, g[i], wl)
			}
		}
		t.Fatalf("%s has %d lines, got %d", path, len(w), len(g))
	}
}
