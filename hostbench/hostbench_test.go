package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/digests.tsv by running every default-seed op")

// benchSpec is the part of BENCHMARK.json the tests check against.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct{ Name string }
	EndToEnd   []endToEnd `json:"end_to_end"`
	PerLayer   []endToEnd `json:"per_layer"`
}

func readSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSpecMatchesCode pins BENCHMARK.json to the code: the run length
// the op budgets are sized for and the workload names.
func TestSpecMatchesCode(t *testing.T) {
	s := readSpec(t)
	if s.RunSeconds != nominalSeconds {
		t.Errorf("run_seconds = %d, want %d", s.RunSeconds, nominalSeconds)
	}
	var got, want []string
	for _, w := range s.Workloads {
		got = append(got, w.Name)
	}
	for _, w := range workloads(false) {
		want = append(want, w.name)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("BENCHMARK.json workloads %v, code %v", got, want)
	}
}

// TestWorkloads runs every workload at tiny size, untraced and traced,
// and checks the emitted metrics against BENCHMARK.json, the digests
// against the goldens and the trace's self-time accounting.
func TestWorkloads(t *testing.T) {
	spec := readSpec(t)
	goldens, err := loadGoldens()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads(true) {
		t.Run(w.name, func(t *testing.T) {
			plain, err := runWorkload(w, runConfig{seed: 1, tiny: true})
			if err != nil {
				t.Fatal(err)
			}
			spans := filepath.Join(t.TempDir(), "spans.tsv")
			traced, err := runWorkload(w, runConfig{seed: 1, trace: true, tiny: true, spans: spans})
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []*result{plain, traced} {
				if r.failed != 0 || r.warmupFailed != 0 || r.attempted == 0 {
					t.Errorf("attempted %d, failed %d, warm-up failures %d", r.attempted, r.failed, r.warmupFailed)
				}
			}
			checkMetrics(t, "end-to-end", plain.metrics, spec.EndToEnd)
			checkMetrics(t, "per-layer", traced.metrics, spec.PerLayer)
			for key, d := range plain.untraced {
				if g, ok := goldens[key]; !ok {
					t.Errorf("no golden digest for %s (regenerate with -update)", key)
				} else if g != d {
					t.Errorf("%s: digest %q, golden %q", key, d, g)
				}
			}
			if !maps.Equal(traced.untraced, traced.traced) {
				t.Errorf("tracing changed the digests:\nuntraced %v\ntraced   %v", traced.untraced, traced.traced)
			}
			checkSelfTimes(t, traced.tr)
			if b, err := os.ReadFile(spans); err != nil || strings.Count(string(b), "\n") != len(traced.tr.spans)+1 {
				t.Errorf("spans file: %v, want a header and %d lines", err, len(traced.tr.spans))
			}
		})
	}
}

// checkMetrics requires exactly the declared metric names, in any order,
// each with its declared unit and a finite value.
func checkMetrics(t *testing.T, kind string, got []metric, want []endToEnd) {
	t.Helper()
	units := make(map[string]string)
	for _, m := range want {
		units[m.Name] = m.Unit
	}
	seen := make(map[string]bool)
	for _, m := range got {
		if seen[m.name] {
			t.Errorf("%s metric %s emitted twice", kind, m.name)
		}
		seen[m.name] = true
		u, ok := units[m.name]
		switch {
		case !ok:
			t.Errorf("%s metric %s is not in BENCHMARK.json", kind, m.name)
		case m.unit == "" || m.unit != u:
			t.Errorf("%s metric %s has unit %q, BENCHMARK.json says %q", kind, m.name, m.unit, u)
		}
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			t.Errorf("%s metric %s = %v", kind, m.name, m.value)
		}
	}
	for name := range units {
		if !seen[name] {
			t.Errorf("%s metric %s in BENCHMARK.json was not emitted", kind, name)
		}
	}
}

// checkSelfTimes requires non-negative self times and, for every op,
// self times that add up to the op's root span within 1%.
func checkSelfTimes(t *testing.T, tr *tracer) {
	t.Helper()
	root := make(map[int32]int64)
	sum := make(map[int32]int64)
	for _, s := range tr.spans {
		if s.self < 0 || s.end < s.start {
			t.Fatalf("span %+v: negative self time or duration", s)
		}
		if s.call == callOp {
			root[s.op] = s.end - s.start
		}
		sum[s.op] += s.self
	}
	if len(root) == 0 {
		t.Fatal("no op spans recorded")
	}
	for op, d := range root {
		if diff := math.Abs(float64(sum[op] - d)); diff > 0.01*float64(d) {
			t.Errorf("op %d: self times sum to %d ns, root span is %d ns", op, sum[op], d)
		}
	}
}

func TestTail(t *testing.T) {
	seq := func(n int) []int64 {
		v := make([]int64, n)
		for i := range v {
			v[i] = int64(i + 1)
		}
		return v
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0}, {5, 5}, {11, 1}, {100, 90}, {999, 989}, {1000, 990}, {2000, 1980}} {
		if got := tail(seq(c.n)); got != c.want {
			t.Errorf("tail of 1..%d = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestVerdict(t *testing.T) {
	wall := endToEnd{Name: "wall_s", Better: "lower", Bound: 0.1}
	base := []float64{10, 10.1, 9.9, 10, 10.2, 9.8, 10, 10.1, 9.9, 10}
	shift := func(d float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v + d
		}
		return out
	}
	noisy := []float64{8, 12, 9, 11, 10, 8, 12, 9, 11, 10}
	for _, c := range []struct {
		name         string
		base, head   []float64
		moreFailures bool
		want         string
	}{
		{"faster", base, shift(-1), false, "improved"},
		{"faster by failing", base, shift(-1), true, "regressed"},
		{"same", base, shift(0.05), false, "unchanged"},
		{"slower", base, shift(2), false, "regressed"},
		{"noisy", noisy, shift(0), false, "unresolved"},
	} {
		if got, _ := verdict(wall, c.base, c.head, c.moreFailures); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

// TestGoldens checks that the committed digests cover every op a
// default-seed run makes, at nominal and tiny size; with -update it
// rewrites them by running each distinct op once.
func TestGoldens(t *testing.T) {
	goldens, err := loadGoldens()
	if err != nil {
		t.Fatal(err)
	}
	var all []op
	for _, tiny := range []bool{false, true} {
		for _, w := range workloads(tiny) {
			all = append(all, w.warmup(1)...)
			all = append(all, w.ops(1, max(w.nominal, w.traced))...)
		}
	}
	if !*update {
		for _, o := range all {
			if _, ok := goldens[o.key]; !ok {
				t.Errorf("no golden digest for %s (regenerate with -update)", o.key)
			}
		}
		return
	}
	serialBench()
	digests := make(map[string]string)
	for _, o := range all {
		if _, done := digests[o.key]; done || o.key == "paper/pass" {
			continue
		}
		d, err := o.run(&runState{})
		if err != nil {
			t.Fatalf("%s: %v", o.key, err)
		}
		digests[o.key] = d
	}
	keys := make([]string, 0, len(digests))
	for k := range digests {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(goldenHeader)
	for _, k := range keys {
		fmt.Fprintf(&b, "%s\t%s\n", k, digests[k])
	}
	if err := os.WriteFile("testdata/digests.tsv", []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

const goldenHeader = `# Virtual digests of every op a default-seed run makes (key<TAB>digest).
# The paper pass is checked against results/ulpbench.txt instead.
# Regenerate: cd hostbench && go test -run TestGoldens -update
`
