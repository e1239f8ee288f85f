package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestExpAllMatchesCommittedResults renders `ulpbench -exp all` and
// compares it byte for byte with results/ulpbench.txt: every paper
// number is virtual time, so any difference is a behaviour change.
func TestExpAllMatchesCommittedResults(t *testing.T) {
	want, err := os.ReadFile("../../results/ulpbench.txt")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := run(&got, "all", "", nil); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got.String() == string(want) {
		return
	}
	g, w := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			t.Fatalf("-exp all differs from results/ulpbench.txt at line %d:\n  got:  %q\n  want: %q", i+1, gl, wl)
		}
	}
}
