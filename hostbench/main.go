// Command hostbench measures what the simulator costs to run in host
// time, end to end and layer by layer, on five workloads. It drives the
// simulator only through the public functions of internal/*, checks every
// op's virtual outcome against committed digests, and prints every metric
// by name with its unit, the last line being one JSON object.
//
// Usage, from the repository root:
//
//	bash hostbench/run.sh --workload <name|all> --seed <n> [--trace 0|1] [--spans <file>]
//	bash hostbench/run.sh compare -base <bin> -head <bin> [-pairs 10] [-workload all]
//
// Op budgets are fixed, sized for 16 s on a 2-vCPU Xeon; --seconds, which
// callers of the benchmark pass, must name that run length.
//
// run.sh builds the binary into .bench_build/hostbench/ and runs it;
// `go run .` inside hostbench/ with -workload works the same way from
// there. See README.md for the metrics and the workloads.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"time"
)

func main() {
	start, stolen := time.Now(), stolenSeconds()
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	name := flag.String("workload", "all", "workload: paper|ulp-switch|sync-futex|scale|chaos|all (all runs each in its own process)")
	seed := flag.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", nominalSeconds, "run length; the op budgets are fixed and sized for this value, the only one accepted")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced run reporting the per-layer metrics")
	spans := flag.String("spans", "", "with -trace 1: also write every recorded span to this file (TSV)")
	setupOnly := flag.Bool("setup-only", false, "run only the set-up and report setup_s (an untraced run starts itself this way for its other set-up samples)")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "hostbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	if *seconds != nominalSeconds {
		fmt.Fprintf(os.Stderr, "hostbench: -seconds %d: the op budgets are sized for %d s\n", *seconds, nominalSeconds)
		os.Exit(2)
	}
	if *name == "all" {
		os.Exit(runAll(*seed, *trace))
	}
	var w *workload
	for _, c := range workloads(false) {
		if c.name == *name {
			w = c
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "hostbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, trace: *trace == 1, start: start, stolen: stolen, spans: *spans}
	if *setupOnly {
		os.Exit(setupOnlyMain(w, cfg))
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		os.Exit(1)
	}
	cfg.self = self
	res, err := runWorkload(w, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		os.Exit(1)
	}
	fmt.Printf("hostbench %s: seed %d, %d ops timed, %d failed, %d warm-up failures\n",
		w.name, *seed, res.attempted, res.failed, res.warmupFailed)
	out := jsonResult{
		Correct:   res.failed == 0 && res.warmupFailed == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   make(map[string]jsonMetric),
	}
	for _, m := range res.metrics {
		fmt.Printf("  %-40s %16.6f %s\n", m.name, m.value, m.unit)
		out.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	if err := printJSON(out); err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		os.Exit(1)
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// jsonResult is the last line of a run's standard output.
type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func printJSON(r jsonResult) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", b)
	return err
}

// setupOnlyMain runs a workload's set-up alone and reports, as the last
// line, its warm-up ops and failures and its setup_s.
func setupOnlyMain(w *workload, cfg runConfig) int {
	_, _, failed, seconds, err := setUp(w, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		return 1
	}
	r := jsonResult{Correct: failed == 0, Attempted: len(w.warmup(cfg.seed)), Failed: failed,
		Metrics: map[string]jsonMetric{"setup_s": {Value: seconds, Unit: "s"}}}
	if err := printJSON(r); err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		return 1
	}
	return 0
}

// runAll runs every workload in its own process, one after another,
// echoing each report, and ends with one JSON object whose metrics are
// named <workload>.<metric>.
func runAll(seed uint64, trace int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		return 1
	}
	all := jsonResult{Correct: true, Metrics: make(map[string]jsonMetric)}
	for _, w := range workloads(false) {
		r, err := runChild(self, childArgs(w.name, seed, trace), os.Stdout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hostbench: %s: %v\n", w.name, err)
			return 1
		}
		all.Correct = all.Correct && r.Correct
		all.Attempted += r.Attempted
		all.Failed += r.Failed
		for k, v := range r.Metrics {
			all.Metrics[w.name+"."+k] = v
		}
	}
	if err := printJSON(all); err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		return 1
	}
	return 0
}

func childArgs(workload string, seed uint64, trace int) []string {
	return []string{"-workload", workload, "-seed", strconv.FormatUint(seed, 10), "-trace", strconv.Itoa(trace)}
}

// runChild runs a hostbench binary, waits for it, copies all but the
// last line of its standard output to echo (when non-nil) and parses the
// last line as its result.
func runChild(bin string, args []string, echo io.Writer) (jsonResult, error) {
	var r jsonResult
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return r, fmt.Errorf("%s: %w", bin, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	last := lines[len(lines)-1]
	if echo != nil {
		w := bufio.NewWriter(echo)
		for _, l := range lines[:len(lines)-1] {
			w.Write(l)
			w.WriteByte('\n')
		}
		if err := w.Flush(); err != nil {
			return r, err
		}
	}
	if err := json.Unmarshal(last, &r); err != nil {
		return r, fmt.Errorf("%s: last output line is not a result: %w", bin, err)
	}
	return r, nil
}
