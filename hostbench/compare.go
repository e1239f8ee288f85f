package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
)

// endToEnd is one end-to-end metric as BENCHMARK.json declares it.
type endToEnd struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadEndToEnd reads the end-to-end metrics and their bounds from
// BENCHMARK.json.
func loadEndToEnd() ([]endToEnd, error) {
	path, err := repoFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []endToEnd `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return spec.EndToEnd, nil
}

// compareMain runs alternating pairs of a parent build (-base) and a
// changed build (-head) on every workload, both sides on the same seed
// within a pair, and judges each end-to-end metric per workload.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	base := fs.String("base", "", "hostbench binary built from the parent commit")
	head := fs.String("head", "", "hostbench binary built from the change")
	pairs := fs.Int("pairs", 10, "alternating parent/change pairs per workload")
	name := fs.String("workload", "all", "workload to compare, or all")
	seed := fs.Uint64("seed", 1, "seed of the first pair; pair i runs seed+i on both sides")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *base == "" || *head == "" || *pairs < 2 {
		fmt.Fprintln(os.Stderr, "hostbench compare: need -base, -head and -pairs >= 2")
		return 2
	}
	spec, err := loadEndToEnd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "hostbench compare:", err)
		return 1
	}
	matched := false
	for _, w := range workloads(false) {
		if *name != "all" && *name != w.name {
			continue
		}
		matched = true
		vals := map[string]map[string][]float64{*base: {}, *head: {}}
		failed := map[string]int{}
		for i := 0; i < *pairs; i++ {
			order := []string{*base, *head}
			if i%2 == 1 {
				order[0], order[1] = order[1], order[0]
			}
			for _, bin := range order {
				r, err := runChild(bin, childArgs(w.name, *seed+uint64(i), 0), nil)
				if err != nil {
					fmt.Fprintf(os.Stderr, "hostbench compare: %s: %v\n", w.name, err)
					return 1
				}
				// A run whose only failures were in its warm-up counts one.
				failed[bin] += r.Failed
				if !r.Correct && r.Failed == 0 {
					failed[bin]++
				}
				for _, m := range spec {
					vals[bin][m.Name] = append(vals[bin][m.Name], r.Metrics[m.Name].Value)
				}
			}
		}
		fmt.Printf("%s: %d pairs, seeds %d..%d; failed ops: parent %d, change %d\n",
			w.name, *pairs, *seed, *seed+uint64(*pairs-1), failed[*base], failed[*head])
		fmt.Printf("  %-14s %-34s %-34s %6s  %s\n", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins", "verdict")
		for _, m := range spec {
			b, h := vals[*base][m.Name], vals[*head][m.Name]
			v, wins := verdict(m, b, h, failed[*head] > failed[*base])
			fmt.Printf("  %-14s %-34s %-34s %3d/%-2d  %s\n", m.Name, quartileText(b, m.Unit), quartileText(h, m.Unit), wins, len(b), v)
		}
	}
	if !matched {
		fmt.Fprintf(os.Stderr, "hostbench compare: unknown workload %q\n", *name)
		return 2
	}
	return 0
}

// verdict judges one metric over paired runs (base[i] and head[i] ran as
// pair i). A change that failed more ops than the parent regressed,
// whatever its times: an op that fails early is cheap. Otherwise the
// change improved the metric only if it wins at least nine pairs in
// ten, ties counting for neither, and the medians differ by more than
// the parent's interquartile range. It regressed if its median is worse
// than the parent's by more than the metric's bound. Otherwise it is
// unresolved when the parent's spread exceeds the bound (unless every
// change run beats every parent run), and unchanged when it does not.
func verdict(m endToEnd, base, head []float64, moreFailures bool) (string, int) {
	sign := 1.0 // positive gain = the change is better
	if m.Better == "higher" {
		sign = -1
	}
	wins := 0
	for i := range base {
		if sign*(base[i]-head[i]) > 0 {
			wins++
		}
	}
	bq1, bmed, bq3 := quartiles(base)
	_, hmed, _ := quartiles(head)
	gain, iqr, bound := sign*(bmed-hmed), bq3-bq1, m.Bound*math.Abs(bmed)
	worstHead, bestBase := head[0], base[0]
	for i := range base {
		if sign*(head[i]-worstHead) > 0 {
			worstHead = head[i]
		}
		if sign*(bestBase-base[i]) > 0 {
			bestBase = base[i]
		}
	}
	switch {
	case moreFailures:
		return "regressed", wins
	case gain > 0 && gain > iqr && wins*10 >= 9*len(base):
		return "improved", wins
	case -gain > bound:
		return "regressed", wins
	case iqr > bound && sign*(bestBase-worstHead) <= 0:
		return "unresolved", wins
	}
	return "unchanged", wins
}

// quartiles returns the first quartile, median and third quartile by
// the method of Python's statistics.quantiles(data, n=4) (exclusive).
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := [3]float64{}
	for i := 1; i <= 3; i++ {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - 4*j)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

func quartileText(v []float64, unit string) string {
	q1, med, q3 := quartiles(v)
	return fmt.Sprintf("%.4g [%.4g, %.4g] %s", med, q1, q3, unit)
}
