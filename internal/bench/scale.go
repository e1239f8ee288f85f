package bench

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/arch"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/supervise"
)

// ProbeSpecs, when non-empty (ulpbench -probe), attaches the stock
// probes to every scale-suite kernel and runs their checks after each
// row's workload — the SLO probe as a scale oracle. Observe-only probes
// leave the virtual columns untouched, so minInto's exact-repeat
// assertion doubles as the probes-don't-perturb guard; a throttle probe
// shifts them deterministically, and repeats still match.
var ProbeSpecs []probe.Spec

// The scale suite stresses the paths that must stay cheap when the
// simulated machine serves very large task counts: task create/exit/join
// throughput, fan-in WakeAll over one futex word (the path that was
// O(n²) with the slice-backed WaitQueue), and futex-table churn over
// many distinct words (the path that used to leak one map entry per
// word ever touched). Unlike the paper experiments it reports host-side
// wall-clock and allocation cost alongside virtual time, because the
// thing under test is the simulator's own data structures; those two
// columns are machine-dependent and NOT byte-deterministic, which is why
// the suite runs under its own `ulpbench -scale` flag rather than as
// part of `-exp all` (whose output is diffed against baselines).

// ScaleConfig sizes one scale-suite run.
type ScaleConfig struct {
	Label      string // printed with the suite header
	SpawnJoin  []int  // task counts for the spawn/join throughput runs
	FanIn      []int  // waiter counts for the fan-in WakeAll runs
	ChurnWords int    // distinct futex words churned through the table
}

// FullScaleConfig is the million-task configuration the EXPERIMENTS.md
// numbers come from. The 1M rows are the machine's design point: the
// per-op virtual cost must stay within ~1.5x of the 100k row, or some
// structure on the spawn/block/wake path has regressed to O(n).
func FullScaleConfig() ScaleConfig {
	return ScaleConfig{
		Label:      "full",
		SpawnJoin:  []int{10_000, 100_000, 1_000_000},
		FanIn:      []int{1_000, 10_000, 100_000, 1_000_000},
		ChurnWords: 10_000,
	}
}

// QuickScaleConfig is the CI-sized configuration behind -scale -quick.
// It keeps one 1M spawn/join row — cheap in waves of 256, and the only
// smoke that exercises million-task counts on every push — while the
// million-waiter fan-in stays in the full suite.
func QuickScaleConfig() ScaleConfig {
	return ScaleConfig{
		Label:      "quick",
		SpawnJoin:  []int{1_000, 10_000, 1_000_000},
		FanIn:      []int{256, 2_048},
		ChurnWords: 1_000,
	}
}

// ScaleRow is one scale measurement: n operations of one series on a
// fresh machine.
type ScaleRow struct {
	Series string
	N      int

	Virt   sim.Duration  // virtual time for all n ops (deterministic)
	Wall   time.Duration // host wall-clock for the whole run
	Allocs uint64        // host allocations for the whole run

	// WakeWall is the host wall-clock of the FutexWake drain alone
	// (fan-in series only) — the direct measure of the wake path's
	// complexity, excluding spawn/join cost.
	WakeWall time.Duration

	// WakeAllocs counts host allocations during that drain. The wake
	// path is steady-state allocation-free: the only allocations here
	// are the run-queue rings and event heap doubling up to n — O(log n)
	// allocations total, so the per-op figure rounds to zero.
	WakeAllocs uint64

	// IdleBytes is the retained heap+stack footprint of the n blocked
	// waiters (fan-in series only), measured across a forced GC while
	// everyone sleeps. IdleBytes/n is the bytes-per-idle-task figure —
	// the column that makes per-task footprint regressions diffable.
	// IdleStack and IdleHeap split it into the goroutine stacks (the
	// StackInuse delta) and the heap (the HeapAlloc delta), so a
	// footprint change can be traced to its cause.
	IdleBytes, IdleStack, IdleHeap uint64

	TablePeak int // futex-table high-water during the run
	TableEnd  int // futex-table size at quiescence (must be 0)
}

// VirtPerOp returns virtual nanoseconds per operation.
func (r ScaleRow) VirtPerOp() float64 { return r.Virt.Nanoseconds() / float64(r.N) }

// WallPerOp returns host nanoseconds per operation.
func (r ScaleRow) WallPerOp() float64 { return float64(r.Wall.Nanoseconds()) / float64(r.N) }

// AllocsPerOp returns host allocations per operation.
func (r ScaleRow) AllocsPerOp() float64 { return float64(r.Allocs) / float64(r.N) }

// BytesPerTask returns the idle memory footprint per blocked task.
func (r ScaleRow) BytesPerTask() float64 { return float64(r.IdleBytes) / float64(r.N) }

// StackBytesPerTask and HeapBytesPerTask split BytesPerTask.
func (r ScaleRow) StackBytesPerTask() float64 { return float64(r.IdleStack) / float64(r.N) }
func (r ScaleRow) HeapBytesPerTask() float64  { return float64(r.IdleHeap) / float64(r.N) }

// ScaleResult is the suite on one machine.
type ScaleResult struct {
	Machine *arch.Machine
	Config  ScaleConfig
	Rows    []ScaleRow
}

// Scale runs the whole suite on machine m, repeating each row Runs
// times per the package protocol: the host-side columns keep the
// minimum (least-noise) run, and the virtual column doubles as a
// determinism check — it must be identical across repeats. Callers
// must not run machines concurrently — the wall/alloc columns read
// process-global counters.
func Scale(m *arch.Machine, cfg ScaleConfig) (ScaleResult, error) {
	res := ScaleResult{Machine: m, Config: cfg}
	for _, n := range cfg.SpawnJoin {
		n := n
		if err := res.addMin(func() (ScaleRow, error) { return scaleSpawnJoin(m, n, false) }); err != nil {
			return res, err
		}
	}
	for _, n := range cfg.FanIn {
		n := n
		if err := res.addMin(func() (ScaleRow, error) { return scaleFanIn(m, n) }); err != nil {
			return res, err
		}
	}
	if err := res.addMin(func() (ScaleRow, error) { return scaleChurn(m, cfg.ChurnWords) }); err != nil {
		return res, err
	}
	return res, nil
}

// addMin repeats one scale row Runs times, folding each repeat into the
// first with minInto, and appends the result.
func (res *ScaleResult) addMin(f func() (ScaleRow, error)) error {
	best, err := f()
	for i := 1; err == nil && i < Runs; i++ {
		err = minInto(&best, f)
	}
	if err != nil {
		return err
	}
	res.Rows = append(res.Rows, best)
	return nil
}

// minInto runs one more repetition of a scale row and folds it into
// best: the simulation-side columns must repeat exactly, and each
// host-side column keeps its minimum.
func minInto(best *ScaleRow, f func() (ScaleRow, error)) error {
	r, err := f()
	if err != nil {
		return err
	}
	if r.Virt != best.Virt || r.TablePeak != best.TablePeak || r.TableEnd != best.TableEnd {
		return fmt.Errorf("%s n=%d: non-deterministic repeat (virt %v vs %v, table %d/%d vs %d/%d)",
			best.Series, best.N, r.Virt, best.Virt, r.TablePeak, r.TableEnd, best.TablePeak, best.TableEnd)
	}
	best.Wall = min(best.Wall, r.Wall)
	best.Allocs = min(best.Allocs, r.Allocs)
	if r.WakeWall > 0 && r.WakeWall < best.WakeWall {
		best.WakeWall = r.WakeWall
	}
	best.WakeAllocs = min(best.WakeAllocs, r.WakeAllocs)
	// Zero means "not measured" (GC-floor noise swallowed a small
	// delta), so prefer any positive repeat over it.
	if r.IdleBytes > 0 && (best.IdleBytes == 0 || r.IdleBytes < best.IdleBytes) {
		best.IdleBytes, best.IdleStack, best.IdleHeap = r.IdleBytes, r.IdleStack, r.IdleHeap
	}
	return nil
}

// scaleRun wraps RunKernel with host-side wall-clock and allocation
// accounting.
func scaleRun(m *arch.Machine, body func(k *kernel.Kernel, root *kernel.Task)) (time.Duration, uint64, error) {
	// Settle the heap first: rows run back to back in one process, and
	// without the barrier a row pays the GC debt of whatever ran before
	// it, which colours its wall and alloc columns.
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	var probeErr error
	err := RunKernel(m, func(k *kernel.Kernel, root *kernel.Task) {
		atts := probe.AttachSpecs(k.Probes(), ProbeSpecs)
		body(k, root)
		for _, a := range atts {
			if a.Check == nil {
				continue
			}
			if cerr := a.Check(); cerr != nil && probeErr == nil {
				probeErr = fmt.Errorf("probe %s: %w", a.Spec, cerr)
			}
		}
	})
	wall := time.Since(t0)
	runtime.ReadMemStats(&after)
	if err == nil {
		err = probeErr
	}
	return wall, after.Mallocs - before.Mallocs, err
}

// scaleSpawnJoin creates and joins n threads in waves, bounding the
// number of live tasks (and run-queue depth) the way a thread pool
// would, so the figure measures steady-state create/exit/join cost.
// With supervised set it is the spawn-join-supervised row: the
// supervision plane (watchdog on, no limits) is installed before the
// clock starts and the row fails if the watchdog never ticked or
// reported a deadlock, so its
// wall/op delta against the bare row is the plane's hook cost on the
// clone/block/unblock/exit fast paths.
func scaleSpawnJoin(m *arch.Machine, n int, supervised bool) (ScaleRow, error) {
	row := ScaleRow{Series: "spawn-join", N: n}
	if supervised {
		row.Series = "spawn-join-supervised"
	}
	var bodyErr error
	wall, allocs, err := scaleRun(m, func(k *kernel.Kernel, root *kernel.Task) {
		e := k.Engine()
		var sup *supervise.Plane
		if supervised {
			sup = supervise.New(k, supervise.Config{Seed: chaosScaleSeed})
			sup.Install()
		}
		const wave = 256
		kids := make([]*kernel.Task, 0, wave)
		t0 := e.Now()
		for done := 0; done < n; {
			b := min(wave, n-done)
			kids = kids[:0]
			for i := 0; i < b; i++ {
				kids = append(kids, root.Clone("sj", kernel.PThreadFlags, func(t *kernel.Task) int { return 0 }))
			}
			for _, c := range kids {
				if root.Join(c) != 0 {
					bodyErr = fmt.Errorf("%s: child exited non-zero", row.Series)
					return
				}
			}
			done += b
		}
		row.Virt = e.Now().Sub(t0)
		row.TableEnd = k.FutexTableSize()
		if sup != nil {
			if sup.Ticks() == 0 {
				bodyErr = fmt.Errorf("%s: the supervisor's watchdog never ticked", row.Series)
			} else if dl := sup.Deadlocks(); len(dl) != 0 {
				bodyErr = fmt.Errorf("%s: watchdog reported %d deadlock(s) on a deadlock-free workload", row.Series, len(dl))
			}
		}
	})
	if err == nil {
		err = bodyErr
	}
	row.Wall, row.Allocs = wall, allocs
	return row, err
}

// idleFootprint forces a collection and returns the retained heap and
// goroutine-stack footprint — the quantities whose deltas across n
// blocked waiters yield the bytes-per-idle-task columns. The GC pause
// lands in the row's Wall column (documented host-dependent), never in
// WakeWall or the virtual column.
func idleFootprint() (heap, stack uint64) {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc, ms.StackInuse
}

// delta returns b-a, or 0 when b is not larger.
func delta(a, b uint64) uint64 {
	if b > a {
		return b - a
	}
	return 0
}

// scaleFanIn blocks n waiters on one futex word and wakes them with a
// single FutexWake(n) — the WakeAll shape. WakeWall isolates the drain,
// WakeAllocs pins it allocation-free, and IdleBytes snapshots what the
// n sleeping tasks cost the host while parked.
func scaleFanIn(m *arch.Machine, n int) (ScaleRow, error) {
	row := ScaleRow{Series: "fanin-wakeall", N: n}
	var bodyErr error
	wall, allocs, err := scaleRun(m, func(k *kernel.Kernel, root *kernel.Task) {
		e := k.Engine()
		space := root.Space()
		addr, merr := space.Mmap(8, mem.ProtRead|mem.ProtWrite, "fanin-word", true, nil)
		if merr != nil {
			bodyErr = merr
			return
		}
		h0, s0 := idleFootprint()
		waiters := make([]*kernel.Task, n)
		for i := range waiters {
			waiters[i] = root.Clone("fw", kernel.PThreadFlags, func(t *kernel.Task) int {
				if t.FutexWait(addr, 0) != nil {
					return 1
				}
				return 0
			})
		}
		for k.FutexWaiters(space.ID, addr) < n {
			root.Nanosleep(10 * sim.Microsecond)
		}
		// Everyone is asleep: the footprint delta over the pre-spawn
		// baseline is what n idle tasks cost the host.
		h1, s1 := idleFootprint()
		row.IdleBytes = delta(h0+s0, h1+s1)
		row.IdleStack, row.IdleHeap = delta(s0, s1), delta(h0, h1)
		row.TablePeak = k.FutexTableSize()
		var mw0, mw1 runtime.MemStats
		runtime.ReadMemStats(&mw0)
		t0 := e.Now()
		w0 := time.Now()
		if got := root.FutexWake(addr, n); got != n {
			bodyErr = fmt.Errorf("fan-in: FutexWake woke %d of %d", got, n)
			return
		}
		row.WakeWall = time.Since(w0)
		runtime.ReadMemStats(&mw1)
		row.WakeAllocs = mw1.Mallocs - mw0.Mallocs
		for _, w := range waiters {
			if root.Join(w) != 0 {
				bodyErr = fmt.Errorf("fan-in: waiter exited non-zero")
				return
			}
		}
		row.Virt = e.Now().Sub(t0)
		row.TableEnd = k.FutexTableSize()
	})
	if err == nil {
		err = bodyErr
	}
	row.Wall, row.Allocs = wall, allocs
	return row, err
}

// scaleChurn sleeps and wakes one waiter on each of `words` distinct
// futex words (batched), driving the futex table through create/drop
// churn. TablePeak proves entries exist only while sleepers do;
// TableEnd proves the table drains to empty rather than accumulating
// one entry per word ever touched.
func scaleChurn(m *arch.Machine, words int) (ScaleRow, error) {
	row := ScaleRow{Series: "futex-churn", N: words}
	var bodyErr error
	wall, allocs, err := scaleRun(m, func(k *kernel.Kernel, root *kernel.Task) {
		e := k.Engine()
		space := root.Space()
		base, merr := space.Mmap(uint64(8*words), mem.ProtRead|mem.ProtWrite, "churn-words", true, nil)
		if merr != nil {
			bodyErr = merr
			return
		}
		const batch = 64
		waiters := make([]*kernel.Task, 0, batch)
		t0 := e.Now()
		for done := 0; done < words; {
			b := min(batch, words-done)
			waiters = waiters[:0]
			for i := 0; i < b; i++ {
				addr := base + uint64(8*(done+i))
				waiters = append(waiters, root.Clone("cw", kernel.PThreadFlags, func(t *kernel.Task) int {
					if t.FutexWait(addr, 0) != nil {
						return 1
					}
					return 0
				}))
			}
			// The previous batch fully drained, so the table holds
			// exactly this batch's words once everyone is asleep.
			for k.FutexTableSize() < b {
				root.Nanosleep(10 * sim.Microsecond)
			}
			if k.FutexTableSize() > row.TablePeak {
				row.TablePeak = k.FutexTableSize()
			}
			for i := 0; i < b; i++ {
				if got := root.FutexWake(base+uint64(8*(done+i)), 1); got != 1 {
					bodyErr = fmt.Errorf("churn: FutexWake woke %d of 1", got)
					return
				}
			}
			for _, w := range waiters {
				if root.Join(w) != 0 {
					bodyErr = fmt.Errorf("churn: waiter exited non-zero")
					return
				}
			}
			done += b
		}
		row.Virt = e.Now().Sub(t0)
		row.TableEnd = k.FutexTableSize()
	})
	if err == nil {
		err = bodyErr
	}
	row.Wall, row.Allocs = wall, allocs
	return row, err
}

// PrintScale renders one machine's suite. Virtual time is
// deterministic; wall and allocs are host-dependent.
func PrintScale(w io.Writer, r ScaleResult) {
	fmt.Fprintf(w, "Scale suite (%s) — %s (%s)\n", r.Config.Label, r.Machine.Name, r.Machine.Arch)
	fmt.Fprintf(w, "  %-14s %8s %12s %12s %10s %12s %11s %11s %12s %11s %6s\n",
		"series", "n", "virt/op", "wall/op", "allocs/op", "wake-wall/op", "wake-allocs",
		"idle-B/task", "stack-B/task", "heap-B/task", "table")
	for _, row := range r.Rows {
		wakeCol, wakeAllocCol, idleCol, stackCol, heapCol := "-", "-", "-", "-", "-"
		if row.WakeWall > 0 {
			wakeCol = fmt.Sprintf("%.0f ns", float64(row.WakeWall.Nanoseconds())/float64(row.N))
			wakeAllocCol = fmt.Sprintf("%d", row.WakeAllocs)
		}
		if row.IdleBytes > 0 {
			idleCol = fmt.Sprintf("%.0f", row.BytesPerTask())
			stackCol = fmt.Sprintf("%.0f", row.StackBytesPerTask())
			heapCol = fmt.Sprintf("%.0f", row.HeapBytesPerTask())
		}
		fmt.Fprintf(w, "  %-14s %8d %9.0f ns %9.0f ns %10.1f %12s %11s %11s %12s %11s %3d/%d\n",
			row.Series, row.N, row.VirtPerOp(), row.WallPerOp(), row.AllocsPerOp(),
			wakeCol, wakeAllocCol, idleCol, stackCol, heapCol, row.TablePeak, row.TableEnd)
	}
	for _, s := range []string{"spawn-join", "fanin-wakeall"} {
		small, big, ok := seriesExtremes(r.Rows, s)
		if !ok {
			continue
		}
		per := func(row ScaleRow) float64 {
			if s == "fanin-wakeall" && row.WakeWall > 0 {
				return float64(row.WakeWall.Nanoseconds()) / float64(row.N)
			}
			return row.WallPerOp()
		}
		if per(small) > 0 {
			fmt.Fprintf(w, "  %s per-op growth %d→%d: %.2fx\n", s, small.N, big.N, per(big)/per(small))
		}
	}
}

// seriesExtremes returns the smallest- and largest-n rows of a series.
func seriesExtremes(rows []ScaleRow, series string) (small, big ScaleRow, ok bool) {
	n := 0
	for _, r := range rows {
		if r.Series != series {
			continue
		}
		if n == 0 || r.N < small.N {
			small = r
		}
		if n == 0 || r.N > big.N {
			big = r
		}
		n++
	}
	return small, big, n >= 2
}

// ScaleRecords flattens a suite result into JSON records: virtual ns
// per op in Ns, rounded host allocations per op in Allocs, and — for
// the fan-in rows — drain allocations and bytes per idle task, in total
// and split into stack and heap, so per-task footprint regressions diff
// in the JSON output.
func ScaleRecords(r ScaleResult) []Record {
	var recs []Record
	for _, row := range r.Rows {
		recs = append(recs, Record{
			Experiment: "scale", Machine: r.Machine.Name, Series: row.Series,
			Size: row.N, Ns: row.VirtPerOp(), Allocs: uint64(row.AllocsPerOp() + 0.5),
			WakeAllocs: row.WakeAllocs, BytesPerTask: row.BytesPerTask(),
			StackBytesPerTask: row.StackBytesPerTask(), HeapBytesPerTask: row.HeapBytesPerTask(),
		})
	}
	return recs
}
