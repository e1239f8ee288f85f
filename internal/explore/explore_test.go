package explore

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/blt"
	"repro/internal/kernel"
	"repro/internal/planes"
	"repro/internal/probe"
	"repro/internal/sim"
)

func TestDFSCompletesPingPongCleanly(t *testing.T) {
	s := PingPong(arch.Wallaby, 3)
	res := Explore(s, Config{Policy: DFS, Depth: 4})
	if res.Failure != nil {
		t.Fatalf("oracle violation on schedule %v: %s", res.Failure.Trace, res.Failure.Err)
	}
	if !res.Complete {
		t.Error("bounded DFS did not exhaust the space")
	}
	if res.MaxWidth < 2 {
		t.Errorf("max branching factor %d — the scenario exposes no decision points", res.MaxWidth)
	}
	if res.Runs < 2 {
		t.Errorf("DFS executed %d run(s), expected to branch", res.Runs)
	}
}

func TestRandomWalksBLTMN(t *testing.T) {
	s := BLT(arch.Wallaby, blt.BusyWait, true)
	res := Explore(s, Config{Policy: RandomWalk, Runs: 6, Seed: 0x5eed})
	if res.Failure != nil {
		t.Fatalf("oracle violation (seed %d, run %d): %s\ntrace: %s",
			res.Failure.Seed, res.Failure.Run, res.Failure.Err, TraceString(res.Failure.Trace))
	}
	if res.Decisions == 0 {
		t.Error("no decision points across all walks")
	}
}

func TestRandomWalksBLTNNBlocking(t *testing.T) {
	s := BLT(arch.Wallaby, blt.Blocking, false)
	res := Explore(s, Config{Policy: RandomWalk, Runs: 4, Seed: 0xb10c})
	if res.Failure != nil {
		t.Fatalf("oracle violation (seed %d): %s", res.Failure.Seed, res.Failure.Err)
	}
}

// lostWakeBugScenario deliberately re-introduces a lost-wake bug class:
// a wake-chaining protocol with one exit path that forgets to pass the
// baton on. Two workers are released from a barrier in lockstep and both
// block on word W; the single wake that follows relies on each woken
// worker re-waking the next — but the "sink" worker exits without
// chaining. On schedules where the sink enqueued on W first, it absorbs
// the only wake and the chainer sleeps forever. The enqueue order is a
// pure scheduling decision, so the explorer must find the failing
// schedule, shrink it, and replay it byte-identically.
func lostWakeBugScenario() Scenario {
	return Scenario{
		Name:    "lostwake-bug",
		Machine: arch.Wallaby,
		Run: func(k *kernel.Kernel, _ planes.Planes) error {
			e := k.Engine()
			root := k.NewTask("root", k.NewAddressSpace(), func(t *kernel.Task) int {
				w, err := t.Mmap(8, true)
				if err != nil {
					return 1
				}
				start, err := t.Mmap(8, true)
				if err != nil {
					return 1
				}
				// Released by one barrier wake, the workers reach the W
				// wait in lockstep: their enqueue order on W is decided
				// only by same-instant tie-breaks.
				chainer := t.Clone("chainer", kernel.PThreadFlags, func(t *kernel.Task) int {
					t.FutexWait(start, 0)
					t.FutexWait(w, 0)
					t.FutexWake(w, 1) // pass the baton on
					return 0
				})
				sink := t.Clone("sink", kernel.PThreadFlags, func(t *kernel.Task) int {
					t.FutexWait(start, 0)
					t.FutexWait(w, 0)
					// BUG: exits without chaining the wake.
					return 0
				})
				chainer.SetAffinity(1)
				sink.SetAffinity(2)
				t.Nanosleep(10 * sim.Microsecond) // both parked on the barrier
				t.FutexWake(start, 2)
				t.Nanosleep(10 * sim.Microsecond) // both parked on W
				t.FutexWake(w, 1)                 // the protocol chains the rest
				t.Join(chainer)
				t.Join(sink)
				return 0
			})
			k.Start(root, 0)
			return e.Run() // a lost wake surfaces as the engine's deadlock error
		},
	}
}

func TestExplorerFindsShrinksAndReplaysLostWakeBug(t *testing.T) {
	s := lostWakeBugScenario()
	res := Explore(s, Config{Policy: DFS, Depth: 8, Runs: 4096})
	if res.Failure == nil {
		t.Fatalf("explorer missed the deliberate lost-wake bug (%d runs, max width %d)", res.Runs, res.MaxWidth)
	}
	f := res.Failure
	if f.ShrunkErr == "" {
		t.Fatalf("shrunk trace %v does not fail", f.Shrunk)
	}
	if len(f.Shrunk) > len(f.Trace) {
		t.Errorf("shrunk trace longer than original: %d > %d", len(f.Shrunk), len(f.Trace))
	}
	// The shrunk prefix is minimal: dropping its last decision (or any
	// single decrement — checked by Shrink itself) must not fail.
	if n := len(f.Shrunk); n > 0 {
		if _, err := Replay(s, f.Shrunk[:n-1]); err != nil && f.Shrunk[n-1] == 0 {
			t.Errorf("prefix %v already fails; shrink left a redundant trailing decision", f.Shrunk[:n-1])
		}
	}
	// Byte-identical replay: the same prefix must reproduce the same
	// full decision trace and the same failure, twice.
	ds1, err1 := Replay(s, f.Shrunk)
	ds2, err2 := Replay(s, f.Shrunk)
	if err1 == nil || err2 == nil {
		t.Fatalf("replay of shrunk trace did not fail: %v / %v", err1, err2)
	}
	if err1.Error() != err2.Error() {
		t.Errorf("replay errors differ:\n  %v\n  %v", err1, err2)
	}
	if err1.Error() != f.ShrunkErr {
		t.Errorf("replay error %q != recorded shrunk error %q", err1, f.ShrunkErr)
	}
	if !reflect.DeepEqual(ds1, ds2) {
		t.Errorf("replayed decision traces differ:\n  %v\n  %v", ds1, ds2)
	}
}

func TestRandomWalkAlsoFindsLostWakeBug(t *testing.T) {
	s := lostWakeBugScenario()
	res := Explore(s, Config{Policy: RandomWalk, Runs: 64, Seed: 1})
	if res.Failure == nil {
		t.Skip("no failing schedule in 64 walks (bug reachable only via DFS here)")
	}
	// The failing walk's trace must replay to the same failure.
	if _, err := Replay(s, res.Failure.Trace); err == nil {
		t.Errorf("failing random trace %s replays clean", TraceString(res.Failure.Trace))
	}
}

func TestTraceStringRoundTrip(t *testing.T) {
	for _, trace := range [][]int{nil, {0}, {2, 0, 1, 3}} {
		got, err := ParseTrace(TraceString(trace))
		if err != nil {
			t.Fatalf("ParseTrace(%q): %v", TraceString(trace), err)
		}
		if len(got) != len(trace) {
			t.Errorf("round trip %v -> %v", trace, got)
			continue
		}
		for i := range got {
			if got[i] != trace[i] {
				t.Errorf("round trip %v -> %v", trace, got)
			}
		}
	}
	if _, err := ParseTrace("1,x"); err == nil {
		t.Error("ParseTrace accepted garbage")
	}
}

// FuzzParseTrace: every element of a trace ParseTrace accepts is a
// decision index (non-negative), and the trace round-trips through
// TraceString.
func FuzzParseTrace(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		trace, err := ParseTrace(s)
		if err != nil {
			return
		}
		for _, c := range trace {
			if c < 0 {
				t.Fatalf("ParseTrace(%q) = %v: negative decision", s, trace)
			}
		}
		again, err := ParseTrace(TraceString(trace))
		if err != nil {
			t.Fatalf("ParseTrace(%q): re-parse of %q: %v", s, TraceString(trace), err)
		}
		if !reflect.DeepEqual(again, trace) {
			t.Fatalf("ParseTrace(%q) = %v, round trip gave %v", s, trace, again)
		}
	})
}

// FuzzParsePolicy: ParsePolicy accepts exactly the names its policies
// print as.
func FuzzParsePolicy(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParsePolicy(s)
		if err == nil && p.String() != s {
			t.Fatalf("ParsePolicy(%q) = %v", s, p)
		}
		if err != nil && (s == RandomWalk.String() || s == DFS.String()) {
			t.Fatalf("ParsePolicy(%q): %v", s, err)
		}
	})
}

// TestStockScenarioDigestDeterminism pins schedule-digest determinism
// over every stock scenario: the recorded decision trace — the
// explorer's digest of one execution — must be identical across repeated
// runs of the same schedule, and a same-seed random exploration must
// reproduce the same aggregate result. The engine's event queue (heap
// and deferred slot) sits under every one of these schedules, so any
// tie-order drift there surfaces here as a digest mismatch.
func TestStockScenarioDigestDeterminism(t *testing.T) {
	for _, name := range ScenarioNames() {
		s, err := ByName(name, arch.Wallaby, blt.BusyWait)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		ds1, err1 := Replay(s, nil)
		ds2, err2 := Replay(s, nil)
		if (err1 == nil) != (err2 == nil) || (err1 != nil && err1.Error() != err2.Error()) {
			t.Errorf("%s: replay errors differ: %v / %v", name, err1, err2)
		}
		if !reflect.DeepEqual(ds1, ds2) {
			t.Errorf("%s: default-schedule decision digests differ:\n  %v\n  %v", name, ds1, ds2)
		}
		if len(ds1) == 0 {
			t.Errorf("%s: no decision points recorded — the scenario pins nothing", name)
		}

		r1 := Explore(s, Config{Policy: RandomWalk, Runs: 4, Seed: 0xd16e57})
		r2 := Explore(s, Config{Policy: RandomWalk, Runs: 4, Seed: 0xd16e57})
		if r1.Runs != r2.Runs || r1.Decisions != r2.Decisions || r1.MaxWidth != r2.MaxWidth {
			t.Errorf("%s: same-seed explorations diverge: %+v vs %+v", name, r1, r2)
		}
		if (r1.Failure == nil) != (r2.Failure == nil) {
			t.Errorf("%s: same-seed explorations disagree on failure", name)
		} else if r1.Failure != nil && !reflect.DeepEqual(r1.Failure.Trace, r2.Failure.Trace) {
			t.Errorf("%s: same-seed failing traces differ: %v vs %v", name, r1.Failure.Trace, r2.Failure.Trace)
		}
	}
}

// TestProbesDoNotPerturbExploration pins the probe plane's determinism
// contract inside the explorer: attaching observe-only stock probes
// (fire counters at every attach point plus an SLO aggregator
// with a generous bound) to every scenario kernel must leave the
// decision digest of the default schedule byte-identical to the bare
// run. Any probe that consumed randomness, reordered events or charged
// virtual time would shift a tie-break somewhere in these schedules and
// surface here as a digest mismatch.
func TestProbesDoNotPerturbExploration(t *testing.T) {
	// A fire counter at every attach point, including the ones whose
	// verdicts decide (fault:site, task:admit, task:restart, ...).
	var names []string
	for _, p := range probe.Points() {
		names = append(names, p.String())
	}
	specs, err := probe.ParseSpecs("count:points=" + strings.Join(names, "+") + ";slo:p99_us=1000000")
	if err != nil {
		t.Fatalf("ParseSpecs: %v", err)
	}
	for _, name := range ScenarioNames() {
		s, err := ByName(name, arch.Wallaby, blt.BusyWait)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		bare, bareErr := Replay(s, nil)
		s.Planes.Probes = specs
		probed, probedErr := Replay(s, nil)
		if (bareErr == nil) != (probedErr == nil) ||
			(bareErr != nil && bareErr.Error() != probedErr.Error()) {
			t.Errorf("%s: probes changed the verdict: bare %v, probed %v", name, bareErr, probedErr)
		}
		if !reflect.DeepEqual(bare, probed) {
			t.Errorf("%s: observe probes perturbed the decision digest:\n  bare:   %v\n  probed: %v",
				name, bare, probed)
		}
	}
}

// TestProbeCheckFailsExploredRun: a failing SLO check fails the
// explored run like any oracle. The explorer used to attach the probes
// and never run their checks, so an SLO no schedule met passed.
func TestProbeCheckFailsExploredRun(t *testing.T) {
	specs, err := probe.ParseSpecs("slo:p99_us=1")
	if err != nil {
		t.Fatal(err)
	}
	s := PingPong(arch.Wallaby, 2)
	s.Planes.Probes = specs
	if _, err := Replay(s, nil); err == nil || !strings.Contains(err.Error(), "SLO violated") {
		t.Errorf("replay under a 1us p99 bound = %v, want the SLO violation", err)
	}
}

func TestByNameRejectsUnknown(t *testing.T) {
	if _, err := ByName("nope", arch.Wallaby, blt.BusyWait); err == nil {
		t.Error("ByName accepted an unknown scenario")
	}
	for _, n := range ScenarioNames() {
		if _, err := ByName(n, arch.Wallaby, blt.BusyWait); err != nil {
			t.Errorf("ByName(%q): %v", n, err)
		}
	}
}
