package chaos_test

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/blt"
	"repro/internal/chaos"
	"repro/internal/fault"
	"repro/internal/leakcheck"
	"repro/internal/metrics"
	"repro/internal/planes"
	"repro/internal/probe"
	"repro/internal/sim"
	usync "repro/internal/sync"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current code")

// goldenProbes are the probe programs the host-time benchmark's chaos
// workload attaches: fire counters on the hottest points plus an SLO.
const goldenProbes = "count:points=syscall:enter+futex:wait+sched:switch;slo:p99_us=20000"

// checkGolden compares got with testdata/<name>.golden, or rewrites the
// file under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := "testdata/" + name + ".golden"
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
	if got == string(want) {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			t.Fatalf("%s differs at line %d:\n  got:  %q\n  want: %q", path, i+1, gl, wl)
		}
	}
}

// writeStats writes a run's plane report as the goldens pin it: a
// "stat" line per fault spec, then one per probe line.
func writeStats(b *bytes.Buffer, r planes.Report) {
	for _, line := range r.Faults {
		fmt.Fprintf(b, "stat %s\n", line)
	}
	for _, line := range r.Probes {
		fmt.Fprintf(b, "stat probe %s\n", line)
	}
}

// leakBaseline warms up with one small chaos run and returns the
// goroutine count that every later run must return to: each run's
// tasks, proc runners and UCs are goroutines, and a run that leaves one
// behind fails the golden test that made it.
func leakBaseline(t *testing.T) int {
	t.Helper()
	if _, err := chaos.Run(chaos.Config{Machine: arch.Wallaby(), Seed: 1, ULPs: 2, Ops: 10}); err != nil {
		t.Fatal(err)
	}
	return leakcheck.Baseline()
}

// TestChaosGolden pins supervised, probed chaos runs to committed
// output: the digest, every fault spec's hit/fire counts, the probe
// reports and the full metrics dump, for seeds 1-4 on both machines
// under both idle policies. A rerun of the same code (the determinism
// tests) cannot catch a refactor that shifts the schedule the same way
// every time; this can.
func TestChaosGolden(t *testing.T) {
	probes, err := probe.ParseSpecs(goldenProbes)
	if err != nil {
		t.Fatal(err)
	}
	base := leakBaseline(t)
	var b bytes.Buffer
	for _, m := range arch.Machines() {
		for _, idle := range []blt.IdlePolicy{blt.BusyWait, blt.Blocking} {
			for seed := uint64(1); seed <= 4; seed++ {
				reg := metrics.NewRegistry()
				cfg := chaos.Config{
					Machine: m, Seed: seed, Idle: idle,
					ULPs: 32, Ops: 300, Signals: 16,
					Supervise: true, Probes: probes, Metrics: reg,
				}
				d, stats, err := chaos.RunWithStats(cfg)
				if err != nil {
					t.Fatalf("%s/%s seed %d: %v", m.Name, idle, seed, err)
				}
				leakcheck.Check(t, base)
				fmt.Fprintf(&b, "== %s/%s seed=%d\ndigest end=%d statuses=%v syscalls=%d ctxsw=%d injections=%d orphans=%d\n",
					m.Name, idle, seed, int64(d.EndTime), d.Statuses, d.Syscalls, d.CtxSwitch, d.Injections, d.Orphans)
				writeStats(&b, stats)
				if err := reg.Dump(&b); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	checkGolden(t, "chaos", b.String())
}

// traceKinds are the record kinds, by phase, that every traced chaos run
// must carry for TestChaosTraceGolden to pin each way a record reaches
// the tracer: kernel and blt log lines, fault and supervisor instants,
// and syscall and couple/decouple spans.
var traceKinds = []string{"kernel/log", "blt/log", "fault/instant", "supervise/instant", "syscall/begin", "blt.span/begin"}

// TestChaosTraceGolden pins the bytes of supervised chaos traces: for
// both machines, both idle policies and seeds 1-2, one line with the
// digest, the tracer's Total, the record count per (kind, phase) and
// the SHA-256 of the text Dump and of the Chrome export. The fault mix
// adds a third-hit KC kill to DefaultSpecs, so every run records a
// fault instant and a supervised respawn.
func TestChaosTraceGolden(t *testing.T) {
	specs, err := fault.ParseSpecs(probe.SpecsString(chaos.DefaultSpecs()) + ";kc_kill:nth=3,task=kc.chaos")
	if err != nil {
		t.Fatal(err)
	}
	phases := [...]string{sim.PhLog: "log", sim.PhInstant: "instant", sim.PhBegin: "begin", sim.PhEnd: "end"}
	base := leakBaseline(t)
	var b bytes.Buffer
	for _, m := range arch.Machines() {
		for _, idle := range []blt.IdlePolicy{blt.BusyWait, blt.Blocking} {
			for seed := uint64(1); seed <= 2; seed++ {
				tr := sim.NewTracer(0)
				d, err := chaos.Run(chaos.Config{
					Machine: m, Seed: seed, Idle: idle, Specs: specs,
					Supervise: true, Trace: tr,
				})
				if err != nil {
					t.Fatalf("%s/%s seed %d: %v", m.Name, idle, seed, err)
				}
				leakcheck.Check(t, base)
				counts := map[string]int{}
				for _, ev := range tr.Events() {
					counts[ev.Kind+"/"+phases[ev.Ph]]++
				}
				for _, k := range traceKinds {
					if counts[k] == 0 {
						t.Errorf("%s/%s seed %d: no %s records", m.Name, idle, seed, k)
					}
				}
				keys := make([]string, 0, len(counts))
				for k := range counts {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				var text, chrome bytes.Buffer
				if err := tr.Dump(&text); err != nil {
					t.Fatal(err)
				}
				if err := tr.DumpChrome(&chrome, m.Name); err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&b, "%s/%s seed=%d end=%d statuses=%v syscalls=%d ctxsw=%d injections=%d orphans=%d total=%d",
					m.Name, idle, seed, int64(d.EndTime), d.Statuses, d.Syscalls, d.CtxSwitch, d.Injections, d.Orphans, tr.Total())
				for _, k := range keys {
					fmt.Fprintf(&b, " %s=%d", k, counts[k])
				}
				fmt.Fprintf(&b, " dump=%x chrome=%x\n", sha256.Sum256(text.Bytes()), sha256.Sum256(chrome.Bytes()))
			}
		}
	}
	checkGolden(t, "trace", b.String())
}

// TestChaosThrottleGolden pins BUSYWAIT chaos runs whose idle KCs are
// throttled at sched_yield: the token bucket refuses about every other
// yield, so syscall:enter Delay verdicts are charged inside sched_yield
// calls made by idle loops. No other golden attaches a throttle.
func TestChaosThrottleGolden(t *testing.T) {
	probes, err := probe.ParseSpecs(goldenProbes + ";throttle:task=kc.,syscall=sched_yield,interval_us=1,burst=2")
	if err != nil {
		t.Fatal(err)
	}
	base := leakBaseline(t)
	var b bytes.Buffer
	for _, m := range arch.Machines() {
		for seed := uint64(1); seed <= 2; seed++ {
			reg := metrics.NewRegistry()
			cfg := chaos.Config{
				Machine: m, Seed: seed, Idle: blt.BusyWait,
				ULPs: 16, Ops: 200, Signals: 8,
				Supervise: true, Probes: probes, Metrics: reg,
			}
			d, stats, err := chaos.RunWithStats(cfg)
			if err != nil {
				t.Fatalf("%s seed %d: %v", m.Name, seed, err)
			}
			leakcheck.Check(t, base)
			fmt.Fprintf(&b, "== %s seed=%d\ndigest end=%d statuses=%v syscalls=%d ctxsw=%d injections=%d orphans=%d\n",
				m.Name, seed, int64(d.EndTime), d.Statuses, d.Syscalls, d.CtxSwitch, d.Injections, d.Orphans)
			writeStats(&b, stats)
			if err := reg.Dump(&b); err != nil {
				t.Fatal(err)
			}
		}
	}
	checkGolden(t, "throttle", b.String())
}

// TestLockChaosGolden pins one lock-chaos digest per lock algorithm.
func TestLockChaosGolden(t *testing.T) {
	base := leakBaseline(t)
	var b bytes.Buffer
	for _, lock := range usync.Names() {
		d, err := chaos.RunLock(chaos.LockConfig{Lock: lock, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", lock, err)
		}
		leakcheck.Check(t, base)
		fmt.Fprintf(&b, "%s end=%d counter=%d syscalls=%d ctxsw=%d injections=%d futex=%+v\n",
			lock, int64(d.EndTime), d.Counter, d.Syscalls, d.CtxSwitch, d.Injections, d.Futex)
	}
	checkGolden(t, "locks", b.String())
}

// lostWakeLockSpecs drops every other futex wake, so the adaptive
// mutex's and the condvar's lost-wake recovery sleeps time out; locks
// reads Timeouts:0 on every line.
const lostWakeLockSpecs = "futex_lost_wake:prob=0.5;futex_spurious:prob=0.05;futex_wait:prob=0.05,err=eintr"

// TestLockChaosLostWakeGolden pins lock-chaos digests under
// lostWakeLockSpecs for every lock algorithm on both machines, seeds
// 1-3.
func TestLockChaosLostWakeGolden(t *testing.T) {
	specs, err := fault.ParseSpecs(lostWakeLockSpecs)
	if err != nil {
		t.Fatal(err)
	}
	base := leakBaseline(t)
	var b bytes.Buffer
	for _, m := range arch.Machines() {
		for _, lock := range usync.Names() {
			for seed := uint64(1); seed <= 3; seed++ {
				d, err := chaos.RunLock(chaos.LockConfig{
					Machine: m, Lock: lock, Seed: seed, Specs: specs, Tasks: 8, Ops: 40,
				})
				if err != nil {
					t.Fatalf("%s/%s seed %d: %v", m.Name, lock, seed, err)
				}
				leakcheck.Check(t, base)
				fmt.Fprintf(&b, "%s/%s seed=%d end=%d counter=%d syscalls=%d ctxsw=%d injections=%d futex=%+v\n",
					m.Name, lock, seed, int64(d.EndTime), d.Counter, d.Syscalls, d.CtxSwitch, d.Injections, d.Futex)
			}
		}
	}
	checkGolden(t, "locks_lostwake", b.String())
}
