package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
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

// TestEachExperimentAlone runs every bench.Experiments entry on its own
// through run, as `ulpbench -exp <name> -csv <prefix>` does: in table
// order the outputs concatenate to results/ulpbench.txt, and the figure
// CSVs equal the committed results/data-*.csv files.
func TestEachExperimentAlone(t *testing.T) {
	want, err := os.ReadFile("../../results/ulpbench.txt")
	if err != nil {
		t.Fatal(err)
	}
	prefix := filepath.Join(t.TempDir(), "data")
	var got bytes.Buffer
	for _, x := range bench.Experiments {
		var out bytes.Buffer
		if err := run(&out, x.Name, prefix, nil); err != nil {
			t.Fatalf("-exp %s: %v", x.Name, err)
		}
		if !bytes.HasPrefix(want[got.Len():], out.Bytes()) {
			t.Fatalf("-exp %s alone differs from its part of results/ulpbench.txt (at byte %d)", x.Name, got.Len())
		}
		got.Write(out.Bytes())
	}
	if got.Len() != len(want) {
		t.Fatalf("the experiments alone print %d bytes, results/ulpbench.txt has %d", got.Len(), len(want))
	}
	csvs, err := filepath.Glob("../../results/data-*.csv")
	if err != nil || len(csvs) == 0 {
		t.Fatalf("no committed figure CSVs (%v)", err)
	}
	for _, path := range csvs {
		wantCSV, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		gotCSV, err := os.ReadFile(prefix + strings.TrimPrefix(filepath.Base(path), "data"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotCSV, wantCSV) {
			t.Errorf("-csv wrote a different %s", filepath.Base(path))
		}
	}
}

// TestUnknownExperimentNamesEveryOne: a bad -exp value fails, and the
// error lists every experiment a user could have meant.
func TestUnknownExperimentNamesEveryOne(t *testing.T) {
	var out bytes.Buffer
	err := run(&out, "bogus", "", nil)
	if err == nil {
		t.Fatal("-exp bogus succeeded")
	}
	if out.Len() != 0 {
		t.Errorf("-exp bogus printed %q", out.String())
	}
	if len(bench.Experiments) != 10 {
		t.Errorf("bench.Experiments has %d entries, want the 10 of results/ulpbench.txt", len(bench.Experiments))
	}
	for _, x := range bench.Experiments {
		if !strings.Contains(err.Error(), x.Name) {
			t.Errorf("error %q does not name %s", err, x.Name)
		}
	}
}
