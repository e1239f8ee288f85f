// Package explore is a controlled-scheduling driver over the
// discrete-event engine: a stateless-model-checking-style search of the
// schedule space. The engine's sim.Chooser hook surfaces every instant
// at which more than one event is enabled; an exploration policy
// (seeded random walks, or bounded exhaustive DFS over decision
// prefixes) picks the order instead of the engine's fixed FIFO
// tie-break.
//
// Because the simulation is otherwise deterministic, a run is a pure
// function of its decision trace: any failure replays exactly from the
// recorded choices, and failing traces auto-shrink to a minimal
// decision prefix (choices beyond the prefix default to 0, the FIFO
// order). Scenarios bundle a workload with its invariant oracles —
// system-call consistency at the Table I sync points, no lost or
// double-run UCs, no waiter left asleep after its wake was delivered,
// and the futex/timeline conservation laws (see oracle.go).
package explore

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/arch"
	"repro/internal/kernel"
	"repro/internal/planes"
	"repro/internal/sim"
)

// Scenario is one explorable workload. For every run the explorer
// builds a fresh engine under its chooser (panics trapped, so protocol
// violations fail the run) and a kernel on a fresh Machine() with Planes
// installed, and shuts the engine down after Run. Run drives the
// workload and returns nil only if every oracle holds; the planes'
// probe checks must pass too.
type Scenario struct {
	Name    string
	Machine func() *arch.Machine
	// Planes are the scenario's own (the deadlock scenario's watchdog)
	// plus the caller's, such as ulpsim -explore's -sched-policy, -probe.
	Planes planes.Options
	Run    func(k *kernel.Kernel, p planes.Planes) error
}

// Decision records one decision point of a run: the branching factor
// the chooser saw and the index it picked.
type Decision struct {
	N      int // number of events enabled at this instant
	Chosen int // index picked, in [0, N)
}

// Policy selects the exploration strategy.
type Policy int

// Policies.
const (
	// RandomWalk runs Config.Runs independent walks; walk i picks every
	// decision uniformly from a SplitMix64 stream seeded Seed+i.
	RandomWalk Policy = iota
	// DFS exhaustively enumerates decision prefixes up to Depth
	// decisions deep (choices beyond the cap follow the FIFO default),
	// bounded by Config.Runs as a budget when nonzero.
	DFS
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	if p == DFS {
		return "dfs"
	}
	return "random"
}

// ParsePolicy parses the -explore-policy flag values.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "random":
		return RandomWalk, nil
	case "dfs":
		return DFS, nil
	}
	return 0, fmt.Errorf("explore: unknown policy %q (want random or dfs)", s)
}

// Config parameterizes an exploration.
type Config struct {
	Policy Policy
	Runs   int    // random: walk count; dfs: run budget (0 = unbounded)
	Depth  int    // dfs: decision-depth cap (0 = depth 1)
	Seed   uint64 // random: base seed
}

// Failure describes the first failing run found.
type Failure struct {
	Err    string // the oracle violation or trapped panic
	Trace  []int  // the failing run's full decision trace
	Run    int    // index of the failing run
	Seed   uint64 // the walk's seed (RandomWalk only)
	Shrunk []int  // minimal failing decision prefix (see Shrink)
	// ShrunkErr is the failure the shrunk trace reproduces. Shrinking
	// preserves *a* failure, not necessarily the identical message.
	ShrunkErr string
}

// Result summarizes an exploration.
type Result struct {
	Runs      int    // schedules executed (including shrink probes)
	Decisions uint64 // decision points encountered across all runs
	MaxWidth  int    // widest branching factor seen
	Complete  bool   // DFS only: the bounded space was exhausted
	Failure   *Failure
}

// recorder is the sim.Chooser the explorer installs: it delegates each
// decision to pick(k, n) (k = decision index, n = branching factor) and
// records the choice.
type recorder struct {
	pick func(k, n int) int
	ds   []Decision
}

// Choose implements sim.Chooser.
func (r *recorder) Choose(_ sim.Time, cands []sim.Candidate) int {
	k, n := len(r.ds), len(cands)
	idx := r.pick(k, n)
	if idx < 0 || idx >= n {
		idx = 0
	}
	r.ds = append(r.ds, Decision{N: n, Chosen: idx})
	return idx
}

// prefixPick follows the given choice prefix, then the FIFO default.
func prefixPick(prefix []int) func(k, n int) int {
	return func(k, n int) int {
		if k < len(prefix) {
			return prefix[k]
		}
		return 0
	}
}

// runOne executes the scenario under a recording chooser. Panics that
// escape the scenario (engine-goroutine panics are already trapped by
// SetTrapPanics; this guards the scenario's own driver code and
// oracles) are converted into errors so exploration survives them.
func runOne(s Scenario, pick func(k, n int) int) (ds []Decision, err error) {
	rec := &recorder{pick: pick}
	defer func() {
		ds = rec.ds
		if r := recover(); r != nil {
			err = fmt.Errorf("explore: scenario panic: %v", r)
		}
	}()
	e := sim.New()
	e.SetChooser(rec)
	e.SetTrapPanics(true)
	defer e.Shutdown()
	k := kernel.New(e, s.Machine())
	p, err := planes.Install(k, s.Planes)
	if err == nil {
		err = s.Run(k, p)
	}
	if err == nil {
		err = p.Finish().Err // a failing probe check fails the run like an oracle
	}
	return ds, err
}

// note folds one run's decision trace into the result statistics.
func (r *Result) note(ds []Decision) {
	r.Runs++
	r.Decisions += uint64(len(ds))
	for _, d := range ds {
		if d.N > r.MaxWidth {
			r.MaxWidth = d.N
		}
	}
}

// choices extracts the raw choice trace.
func choices(ds []Decision) []int {
	out := make([]int, len(ds))
	for i, d := range ds {
		out[i] = d.Chosen
	}
	return out
}

// Explore searches the scenario's schedule space under the given
// configuration, stopping at the first failure (which is shrunk before
// returning).
func Explore(s Scenario, cfg Config) Result {
	if cfg.Policy == DFS {
		return exploreDFS(s, cfg)
	}
	return exploreRandom(s, cfg)
}

func exploreRandom(s Scenario, cfg Config) Result {
	var res Result
	runs := cfg.Runs
	if runs <= 0 {
		runs = 1
	}
	for i := 0; i < runs; i++ {
		seed := cfg.Seed + uint64(i)
		rng := sim.NewRNG(seed)
		ds, err := runOne(s, func(_, n int) int { return rng.Intn(n) })
		res.note(ds)
		if err != nil {
			res.fail(s, &Failure{Err: err.Error(), Trace: choices(ds), Run: i, Seed: seed})
			return res
		}
	}
	return res
}

func exploreDFS(s Scenario, cfg Config) Result {
	var res Result
	depth := cfg.Depth
	if depth <= 0 {
		depth = 1
	}
	var prefix []int
	for {
		if cfg.Runs > 0 && res.Runs >= cfg.Runs {
			return res // budget exhausted before the space was
		}
		ds, err := runOne(s, prefixPick(prefix))
		res.note(ds)
		if err != nil {
			res.fail(s, &Failure{Err: err.Error(), Trace: choices(ds), Run: res.Runs - 1})
			return res
		}
		// Backtrack: advance the deepest in-cap decision that still has
		// an unexplored sibling; all of them exhausted means the bounded
		// space is fully searched.
		limit := len(ds)
		if depth < limit {
			limit = depth
		}
		i := limit - 1
		for ; i >= 0; i-- {
			if ds[i].Chosen+1 < ds[i].N {
				break
			}
		}
		if i < 0 {
			res.Complete = true
			return res
		}
		prefix = append(prefix[:0], choices(ds[:i])...)
		prefix = append(prefix, ds[i].Chosen+1)
	}
}

// fail attaches a failure, shrinking its trace first.
func (r *Result) fail(s Scenario, f *Failure) {
	f.Shrunk, f.ShrunkErr = Shrink(s, f.Trace, func(ds []Decision) { r.note(ds) })
	r.Failure = f
}

// Shrink minimizes a failing decision trace: trailing zeros are
// stripped (beyond-prefix choices default to 0 anyway), the shortest
// failing prefix is found by bisection, and each surviving choice is
// greedily decremented toward the FIFO default. The returned prefix
// still fails (with the returned error); onRun, if non-nil, observes
// every probe run for accounting.
func Shrink(s Scenario, trace []int, onRun func([]Decision)) ([]int, string) {
	cur := append([]int(nil), trace...)
	lastErr := ""
	fails := func(c []int) bool {
		ds, err := runOne(s, prefixPick(c))
		if onRun != nil {
			onRun(ds)
		}
		if err != nil {
			lastErr = err.Error()
			return true
		}
		return false
	}
	strip := func(c []int) []int {
		for len(c) > 0 && c[len(c)-1] == 0 {
			c = c[:len(c)-1]
		}
		return c
	}
	cur = strip(cur)
	if !fails(cur) {
		// Flaky outside the engine's control (should not happen with a
		// deterministic scenario); keep the original trace unshrunk.
		return trace, ""
	}
	// Bisect the prefix length. Invariant: cur[:hi] fails.
	lo, hi := 0, len(cur)
	for lo < hi {
		mid := (lo + hi) / 2
		if fails(cur[:mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	cur = strip(cur[:hi])
	// Greedy point decrements until a fixed point.
	for improved := true; improved; {
		improved = false
		for i := len(cur) - 1; i >= 0; i-- {
			for cur[i] > 0 {
				trial := append([]int(nil), cur...)
				trial[i]--
				if !fails(strip(trial)) {
					break
				}
				cur[i]--
				cur = strip(cur)
				improved = true
				if i >= len(cur) {
					break
				}
			}
		}
	}
	// Re-establish lastErr as the final prefix's failure (the loop above
	// may have left lastErr from a rejected probe).
	fails(cur)
	return cur, lastErr
}

// Replay executes the scenario under the given decision prefix and
// returns the full decision trace plus the scenario error (nil when
// every oracle held).
func Replay(s Scenario, prefix []int) ([]Decision, error) {
	return runOne(s, prefixPick(prefix))
}

// TraceString renders a choice trace for the -explore-trace flag.
func TraceString(trace []int) string {
	parts := make([]string, len(trace))
	for i, c := range trace {
		parts[i] = strconv.Itoa(c)
	}
	return strings.Join(parts, ",")
}

// ParseTrace parses TraceString's output.
func ParseTrace(s string) ([]int, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 0 {
			return nil, fmt.Errorf("explore: bad trace element %q", p)
		}
		out[i] = v
	}
	return out, nil
}
