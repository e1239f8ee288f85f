package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/bench"
	"repro/internal/metrics"
)

// nominalSeconds is the run length the workloads' fixed op budgets are
// sized for; BENCHMARK.json's run_seconds must match it.
const nominalSeconds = 16

// setupProcs is how many processes time the set-up in an untraced run:
// the run itself and fresh copies of it started with -setup-only, each
// timed from its own main entry, so every sample is a cold start.
// setup_s is their median.
const setupProcs = 3

// runConfig is one benchmark invocation.
type runConfig struct {
	seed   uint64
	trace  bool
	tiny   bool      // unit-test sizes: tiny workloads and rungs
	start  time.Time // main entry; set-up is timed from here
	stolen float64   // stolenSeconds at start
	spans  string    // traced run: write the spans to this file
	// self is the benchmark binary, which an untraced run starts again
	// with -setup-only for the other set-up samples; empty, the run's
	// own set-up is the only sample.
	self string
}

type metric struct {
	name, unit string
	value      float64
}

// result is one run's outcome: the timed ops attempted and failed, the
// metrics, and for tests the digests each pass saw and the trace.
type result struct {
	attempted, failed int
	warmupFailed      int
	metrics           []metric
	untraced, traced  map[string]string
	tr                *tracer
}

// checker counts attempted and failed ops. An op fails if it returns an
// error or if its digest differs from the one expected for its key: the
// committed golden, or else the digest the key produced first in this
// process (the warm-up, or an earlier repeat).
type checker struct {
	want              map[string]string
	attempted, failed int
}

func (c *checker) check(key, digest string, err error) {
	c.attempted++
	want, ok := c.want[key]
	switch {
	case err != nil:
		c.failed++
		fmt.Fprintf(os.Stderr, "hostbench: op %s failed: %v\n", key, err)
	case ok && digest != want:
		c.failed++
		fmt.Fprintf(os.Stderr, "hostbench: op %s: digest %q, want %q\n", key, digest, want)
	case !ok:
		c.want[key] = digest
	}
}

// pass is what running an op list measured.
type pass struct {
	// wall and cpu are the pass's host wall and CPU seconds: each op's
	// time, less stolen time (see elapsed), normalised to the reference
	// host's speed (see slowness), and each op then counted at the median
	// over the ops of its key, so one op slowed by a neighbour's burst or
	// an ill-timed GC cycle moves the total by no more than a typical op
	// of its kind.
	wall, cpu float64
	// residentMB is the highest over keys of the median over a key's ops
	// of the op's peak resident memory (see peakSampler), so a garbage
	// collection that overshoots in one op does not set it.
	residentMB float64
	// speed is 1 over the mean slowness measured in the pass.
	speed   float64
	digests map[string]string // the digest each key produced
	// goroutines and heap are the pass's peak goroutine count and live
	// heap bytes.
	goroutines int
	heap       uint64
}

// runPass runs ops in order. Each op includes collecting its own
// garbage: a forced GC closes it, so the next op starts on a settled
// heap and the slowness sample between them runs with no GC in progress.
func runPass(ops []op, rs *runState, c *checker) pass {
	p := pass{digests: make(map[string]string)}
	wall := make(map[string][]float64)
	cpu := make(map[string][]float64)
	resident := make(map[string][]float64)
	s := startSampler()
	prev := slowness()
	slowSum := prev
	for i, o := range ops {
		s.takeResident()
		st0, t0, cpu0 := stolenSeconds(), time.Now(), cpuSeconds()
		sp := rs.tr.beginOp(i)
		d, err := o.run(rs)
		runtime.GC()
		rs.tr.end(sp)
		w, u := elapsed(t0, st0), cpuSeconds()-cpu0
		resident[o.key] = append(resident[o.key], float64(s.takeResident())/1e6)
		next := slowness()
		f := 1 / ((prev + next) / 2)
		wall[o.key] = append(wall[o.key], w*f)
		cpu[o.key] = append(cpu[o.key], u*f)
		prev, slowSum = next, slowSum+next
		c.check(o.key, d, err)
		p.digests[o.key] = d
	}
	s.finish()
	for key, v := range wall {
		p.wall += float64(len(v)) * median(v)
		p.cpu += float64(len(v)) * median(cpu[key])
		p.residentMB = max(p.residentMB, median(resident[key]))
	}
	p.speed = 1 / (slowSum / float64(len(ops)+1))
	p.goroutines, p.heap = s.goroutines, s.heap
	return p
}

// slowness is how much slower the host runs now than the reference
// host, a 2-vCPU Xeon with no neighbours busy: the geometric mean of
// handoff and compute, each over its time on the reference host. On a
// shared host both move by tens of percent for minutes at a time as
// neighbours come and go, and not always together; the samples
// bracketing each op measure that drift so the reported times can be
// divided by it, and wall_s and cpu_s are seconds at the reference
// speed. Both probes use only the standard library, so a change to the
// simulator cannot move them.
func slowness() float64 {
	return math.Sqrt(handoff() / refHandoffNs * compute() / refComputeNs)
}

// refHandoffNs and refComputeNs are handoff's and compute's results on
// the reference host.
const refHandoffNs, refComputeNs = 480.0, 3.5

// handoff returns the host's current goroutine-handoff time: ns per
// round trip of a value between two goroutines over unbuffered channels,
// the best of four samples of 5,000 round trips. The engine passes
// control between simulated tasks exactly this way, so this prices a
// simulated context switch, wake-ups across CPUs included.
func handoff() float64 {
	const trips = 5000
	best := math.Inf(1)
	for s := 0; s < 4; s++ {
		ping, pong := make(chan struct{}), make(chan struct{})
		go func() {
			for range ping {
				pong <- struct{}{}
			}
			close(pong)
		}()
		t0 := time.Now()
		for i := 0; i < trips; i++ {
			ping <- struct{}{}
			<-pong
		}
		best = min(best, float64(time.Since(t0).Nanoseconds())/trips)
		close(ping)
		<-pong // closed once the echo goroutine has left its loop
	}
	return best
}

// compute returns the host's current speed at plain computation: ns per
// round of a dependent xorshift-multiply chain, the best of three samples
// of 2^19 rounds. A neighbour on the same core or a lower clock slows
// every instruction of an op, which a handoff, mostly waiting, shows
// less.
func compute() float64 {
	const rounds = 1 << 19
	best := math.Inf(1)
	x := uint64(1)
	for s := 0; s < 3; s++ {
		t0 := time.Now()
		for i := 0; i < rounds; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			x *= 0x9E3779B97F4A7C15
		}
		best = min(best, float64(time.Since(t0).Nanoseconds())/rounds)
	}
	computeSink = x
	return best
}

// computeSink keeps compute's chain from being optimised away.
var computeSink uint64

// elapsed returns the wall seconds since t0, when stolenSeconds read
// stolen0, less the time stolen from each CPU meanwhile. Stolen time is
// time the hypervisor ran other virtual machines while this one's CPUs
// had work; on a shared 2-vCPU host it has reached 15 % of the CPUs'
// time over a whole 20 s run, and it slows an op however fast the
// simulator is. The mean per CPU is what an op that keeps one CPU busy
// at a time loses to it. CPU time (cpu_s) already leaves it out.
func elapsed(t0 time.Time, stolen0 float64) float64 {
	return time.Since(t0).Seconds() - (stolenSeconds() - stolen0)
}

// stolenSeconds returns the steal column of /proc/stat's total line,
// the time stolen from all CPUs, over the number of CPUs listed there,
// in seconds; 0 where there is no such file.
func stolenSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	var total float64
	cpus := 0
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) < 9 || !strings.HasPrefix(f[0], "cpu"):
		case f[0] == "cpu":
			total, _ = strconv.ParseFloat(f[8], 64) // an unparsable column reads as no steal
		default:
			cpus++
		}
	}
	if cpus == 0 {
		return 0
	}
	return total / userHz / float64(cpus)
}

// userHz is the unit of /proc/stat's times, ticks per second; Linux
// fixes it at 100 for user space.
const userHz = 100

// setUp is a run's set-up: it loads the goldens, builds the op list and
// runs the warm-up. It returns the checker primed by the warm-up (its
// counts cleared, warm-up failures returned apart), the ops and the
// set-up time from start, measured and normalised like the ops' times.
func setUp(w *workload, cfg runConfig) (ck *checker, ops []op, warmupFailed int, seconds float64, err error) {
	serialBench()
	t0, stolen0 := cfg.start, cfg.stolen
	if t0.IsZero() {
		t0, stolen0 = time.Now(), stolenSeconds()
	}
	want, err := loadGoldens()
	if err != nil {
		return nil, nil, 0, 0, err
	}
	ck = &checker{want: want}
	n := w.nominal
	if cfg.trace {
		n = w.traced
	}
	ops = w.ops(cfg.seed, n)
	warm := runPass(w.warmup(cfg.seed), &runState{}, ck)
	seconds = elapsed(t0, stolen0) * warm.speed
	warmupFailed = ck.failed
	ck.attempted, ck.failed = 0, 0
	return ck, ops, warmupFailed, seconds, nil
}

// runWorkload runs one workload: set-up, then either the timed phase
// with tracing off (end-to-end metrics) or the traced run (per-layer
// metrics).
func runWorkload(w *workload, cfg runConfig) (*result, error) {
	ck, ops, warmupFailed, own, err := setUp(w, cfg)
	if err != nil {
		return nil, err
	}
	res := &result{warmupFailed: warmupFailed}

	if !cfg.trace {
		setup := []float64{own}
		for i := 1; i < setupProcs && cfg.self != ""; i++ {
			r, err := runChild(cfg.self, append(childArgs(w.name, cfg.seed, 0), "-setup-only"), nil)
			if err != nil {
				return nil, err
			}
			res.warmupFailed += r.Failed
			setup = append(setup, r.Metrics["setup_s"].Value)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		p := runPass(ops, &runState{}, ck)
		runtime.ReadMemStats(&m1)
		res.untraced = p.digests
		res.attempted, res.failed = ck.attempted, ck.failed
		res.metrics = []metric{
			{"wall_s", "s", p.wall},
			{"cpu_s", "s", p.cpu},
			{"alloc_mb", "MB", float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6},
			{"peak_rss_mb", "MB", p.residentMB},
			{"setup_s", "s", median(setup)},
			{"success_rate", "ratio", float64(ck.attempted-ck.failed) / float64(ck.attempted)},
		}
		return res, nil
	}

	// Traced run: the same ops untraced (the baseline for the tracing
	// overhead, the host-side scale rows and the Go runtime figures),
	// then traced with spans and a metrics registry, then the rungs.
	untraced := &runState{}
	g0 := readGoStats()
	pu := runPass(ops, untraced, ck)
	g1 := readGoStats()
	traced := &runState{tr: newTracer(), reg: metrics.NewRegistry()}
	pt := runPass(ops, traced, ck)
	traced.tr.finish()
	rungs, err := runRungs(cfg.tiny)
	if err != nil {
		return nil, err
	}
	if cfg.spans != "" {
		if err := traced.tr.writeSpans(cfg.spans); err != nil {
			return nil, err
		}
	}
	res.untraced, res.traced, res.tr = pu.digests, pt.digests, traced.tr
	res.attempted, res.failed = ck.attempted, ck.failed
	res.metrics = layerMetrics(traced, pu, untraced.scaleRows, g0, g1, rungs)
	res.metrics = append(res.metrics, metric{"trace.overhead_ratio", "ratio", pt.wall/pu.wall - 1})
	return res, nil
}

// serialBench makes the bench harness run each measurement once and
// its sweeps serially: one driver, and host time that adds up.
func serialBench() { bench.Runs, bench.Parallelism = 1, 1 }

//go:embed testdata/digests.tsv
var goldenTSV string

// loadGoldens returns the committed digests by op key, plus the paper
// pass's digest, which is that of results/ulpbench.txt.
func loadGoldens() (map[string]string, error) {
	g := make(map[string]string)
	for _, line := range strings.Split(goldenTSV, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, digest, ok := strings.Cut(line, "\t")
		if !ok {
			return nil, fmt.Errorf("testdata/digests.tsv: malformed line %q", line)
		}
		g[key] = digest
	}
	path, err := repoFile("results/ulpbench.txt")
	if err != nil {
		return nil, err
	}
	text, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(text)
	g["paper/pass"] = "sha256:" + hex.EncodeToString(sum[:])
	return g, nil
}

// repoFile finds a file of the repository from its root (where the
// benchmark runs) or from hostbench/ (where its tests run).
func repoFile(rel string) (string, error) {
	for _, dir := range []string{".", ".."} {
		p := filepath.Join(dir, rel)
		if _, err := os.Stat(p); err == nil {
			return p, nil
		}
	}
	return "", fmt.Errorf("%s not found: run from the repository root", rel)
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// goStats are Go runtime counters read at the edges of a pass.
type goStats struct {
	gcCycles     uint32
	gcPause      time.Duration
	gcCPU, total float64 // GC and total CPU seconds, as the runtime accounts them
}

var cpuSampleNames = []string{"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func readGoStats() goStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := make([]rtmetrics.Sample, len(cpuSampleNames))
	for i, name := range cpuSampleNames {
		s[i].Name = name
	}
	rtmetrics.Read(s)
	return goStats{gcCycles: ms.NumGC, gcPause: time.Duration(ms.PauseTotalNs),
		gcCPU: s[0].Value.Float64(), total: s[1].Value.Float64()}
}

// peakSampler polls the goroutine count, the live heap and resident
// memory every two milliseconds during a pass and keeps their maxima;
// none is otherwise observable after the fact. Resident memory is the
// memory the program holds by the runtime's own account: all it has
// mapped read-write, less free heap, whether already returned to the
// operating system or kept for reuse (how much it keeps depends on when
// the background scavenger last ran). ru_maxrss would not do: it is one
// high-water mark for the whole process, which a single overshooting
// collection sets, and execve carries the launching process's mark
// into it.
type peakSampler struct {
	stop, done chan struct{}
	goroutines int
	heap       uint64
	resident   atomic.Uint64 // peak since the last takeResident
}

var samplerMetrics = []string{"/memory/classes/heap/objects:bytes",
	"/memory/classes/total:bytes", "/memory/classes/heap/released:bytes", "/memory/classes/heap/free:bytes"}

func startSampler() *peakSampler {
	s := &peakSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		m := make([]rtmetrics.Sample, len(samplerMetrics))
		for i, name := range samplerMetrics {
			m[i].Name = name
		}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			rtmetrics.Read(m)
			s.goroutines = max(s.goroutines, runtime.NumGoroutine())
			s.heap = max(s.heap, m[0].Value.Uint64())
			r := m[1].Value.Uint64() - m[2].Value.Uint64() - m[3].Value.Uint64()
			for old := s.resident.Load(); r > old && !s.resident.CompareAndSwap(old, r); old = s.resident.Load() {
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// takeResident returns the peak resident bytes sampled since the last
// call and starts a new interval.
func (s *peakSampler) takeResident() uint64 { return s.resident.Swap(0) }

// finish stops the sampler and waits for it to exit.
func (s *peakSampler) finish() {
	close(s.stop)
	<-s.done
}

// layerMetrics derives the per-layer metrics of a traced run: span
// counts and self times, the virtual counters of the metrics registry,
// host time per simulated event, and from the untraced pass (pu, its
// rows and g0 to g1) the scale suite's host columns and the Go runtime
// figures; then the rungs.
func layerMetrics(rs *runState, pu pass, rows []bench.ScaleRow, g0, g1 goStats, rungs []metric) []metric {
	var out []metric
	add := func(name, unit string, v float64) { out = append(out, metric{name, unit, v}) }

	self := rs.tr.selfByCall()
	for c := callSimRun; c < callBenchScale; c++ {
		add(c.String()+".calls", "count", float64(len(self[c])))
		add(c.String()+".self_ns_p50", "ns", nearestRank(self[c], 0.5))
		add(c.String()+".self_ns_p99", "ns", tail(self[c]))
	}
	for c := callBenchScale; int(c) < len(callNames); c++ {
		total := int64(0)
		for _, v := range self[c] {
			total += v
		}
		add(c.String()+".self_s", "s", float64(total)/1e9)
	}
	busy := rs.tr.layerSelf()
	for _, l := range layers {
		add(l+".self_s", "s", busy[l])
	}

	reg := rs.reg
	count := func(name string) float64 { return float64(reg.Counter(name).Value()) }
	var syscalls, acqs, contended float64
	for _, s := range reg.Snapshot() {
		switch {
		case s.Kind == "hist" && strings.HasPrefix(s.Name, "kernel.syscall.ps.") && strings.HasSuffix(s.Name, ".count"):
			syscalls += s.Value
		case s.Kind == "counter" && strings.HasPrefix(s.Name, "sync.") && strings.HasSuffix(s.Name, ".acquisitions"):
			acqs += s.Value
		case s.Kind == "counter" && strings.HasPrefix(s.Name, "sync.") && strings.HasSuffix(s.Name, ".contended"):
			contended += s.Value
		}
	}
	klt, ult := count("kernel.ctx_switch.klt"), count("blt.ctx_switch.ult")
	add("kernel.syscalls", "count", syscalls)
	add("kernel.ctx_switch.klt", "count", klt)
	add("blt.ctx_switch.ult", "count", ult)
	add("blt.steals", "count", count("blt.steals"))
	for _, c := range []string{"waits", "wake_calls", "woken", "spurious", "lost_wakes", "requeued", "timeouts"} {
		add("kernel.futex."+c, "count", count("kernel.futex."+c))
	}
	add("kernel.faults.injected", "count", count("kernel.faults.injected"))
	add("supervise.ticks", "count", count("supervise.ticks"))
	add("sync.acquisitions", "count", acqs)
	add("sync.contended", "count", contended)
	add("kernel.runq.depth.p95", "count", float64(reg.Histogram("kernel.runq.depth").Quantile(0.95)))
	add("kernel.syscall.ps.futex_wait.p95", "ps", float64(reg.Histogram("kernel.syscall.ps.futex_wait").Quantile(0.95)))
	add("sync.fastpath_ratio", "ratio", ratio(acqs-contended, acqs))
	add("kernel.futex.wake_yield", "ratio", ratio(count("kernel.futex.woken"), count("kernel.futex.wake_calls")))
	add("kernel.futex.spurious_ratio", "ratio", ratio(count("kernel.futex.spurious"), count("kernel.futex.waits")))
	ns := pu.wall * 1e9
	add("host_ns_per_syscall", "ns", ratio(ns, syscalls))
	add("host_ns_per_switch", "ns", ratio(ns, klt+ult))

	var sj, fan, churn, all rowSum
	for _, r := range rows {
		switch r.Series {
		case "spawn-join":
			sj.add(r)
		case "fanin-wakeall":
			fan.add(r)
		default:
			churn.add(r)
		}
		all.add(r)
	}
	add("scale.spawn_join.host_ns_per_op", "ns", ratio(sj.wall, sj.n))
	add("scale.fanin.wake_ns_per_op", "ns", ratio(fan.wake, fan.n))
	add("scale.fanin.bytes_per_idle_task", "B", ratio(fan.idle, fan.n))
	add("scale.churn.host_ns_per_op", "ns", ratio(churn.wall, churn.n))
	add("scale.allocs_per_op", "count", ratio(all.allocs, all.n))

	add("go.gc_cycles", "count", float64(g1.gcCycles-g0.gcCycles))
	add("go.gc_pause_s", "s", (g1.gcPause - g0.gcPause).Seconds())
	add("go.gc_cpu_fraction", "ratio", ratio(g1.gcCPU-g0.gcCPU, g1.total-g0.total))
	add("go.goroutines_peak", "count", float64(pu.goroutines))
	add("go.heap_peak_mb", "MB", float64(pu.heap)/1e6)
	return append(out, rungs...)
}

// rowSum totals the host columns of scale rows.
type rowSum struct{ n, wall, wake, idle, allocs float64 }

func (s *rowSum) add(r bench.ScaleRow) {
	s.n += float64(r.N)
	s.wall += float64(r.Wall.Nanoseconds())
	s.wake += float64(r.WakeWall.Nanoseconds())
	s.idle += float64(r.IdleBytes)
	s.allocs += float64(r.Allocs)
}

// ratio is a/b, or 0 when the base b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
