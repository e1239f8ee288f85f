package bench

import (
	"fmt"
	"io"

	"repro/internal/arch"
	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/planes"
	"repro/internal/sim"
	usync "repro/internal/sync"
)

// The contention suite sweeps the lock lab (internal/sync) over
// contention level and ULT:KC oversubscription on both machine cost
// models: every algorithm × thread count × threads-per-core ratio, a
// fixed total acquisition budget split across the threads, and the
// acquisition-latency distribution pulled from the metrics plane. All
// columns are virtual — the suite is fully deterministic, so repeats
// must match exactly and the quick grid is a strict subset of the full
// grid (shared rows are byte-identical, making CI diffs meaningful).

// ContentionConfig sizes one contention-suite run.
type ContentionConfig struct {
	Label   string
	Locks   []string // algorithms (subset of sync.Names)
	Threads []int    // contending thread counts
	Ratios  []int    // threads-per-core oversubscription ratios
	Iters   int      // total acquisitions per row, split across threads
}

// FullContentionConfig is the committed-BENCH_contention.json grid.
// Iters is divisible by every thread count so each thread's share is
// exact.
func FullContentionConfig() ContentionConfig {
	return ContentionConfig{
		Label:   "full",
		Locks:   usync.Names(),
		Threads: []int{2, 4, 8, 16},
		Ratios:  []int{1, 4},
		Iters:   240,
	}
}

// QuickContentionConfig is the CI grid: a strict subset of the full
// grid with identical Iters, so every row it produces appears
// byte-identically in the full snapshot.
func QuickContentionConfig() ContentionConfig {
	return ContentionConfig{
		Label:   "quick",
		Locks:   []string{"ticket", "mcs", "futex"},
		Threads: []int{2, 8},
		Ratios:  []int{1, 4},
		Iters:   240,
	}
}

// ContentionRow is one cell of the sweep: Iters acquisitions of one
// algorithm by Threads threads pinned round-robin onto Cores cores.
type ContentionRow struct {
	Lock    string
	Threads int
	Ratio   int // requested threads-per-core ratio
	Cores   int // cores actually used (ratio capped by the machine)

	Virt      sim.Duration // virtual time for the whole row
	AcqP50    sim.Duration // median lock-acquisition latency
	AcqP99    sim.Duration // 99th-percentile acquisition latency
	Contended uint64       // acquisitions that left the fast path
}

// NsPerOp returns virtual nanoseconds per acquisition.
func (r ContentionRow) NsPerOp(iters int) float64 { return r.Virt.Nanoseconds() / float64(iters) }

// ContentionResult is the sweep on one machine.
type ContentionResult struct {
	Machine *arch.Machine
	Config  ContentionConfig
	Rows    []ContentionRow
}

// Contention runs the sweep on machine m, repeating each row per the
// package Runs protocol. Every column is virtual, so the repeats are a
// pure determinism check: any divergence is an error.
func Contention(m *arch.Machine, cfg ContentionConfig) (ContentionResult, error) {
	res := ContentionResult{Machine: m, Config: cfg}
	for _, lock := range cfg.Locks {
		for _, threads := range cfg.Threads {
			for _, ratio := range cfg.Ratios {
				row, err := contentionRow(m, lock, threads, ratio, cfg.Iters)
				if err != nil {
					return res, err
				}
				for i := 1; i < Runs; i++ {
					again, err := contentionRow(m, lock, threads, ratio, cfg.Iters)
					if err != nil {
						return res, err
					}
					if again != row {
						return res, fmt.Errorf("contention %s/%s t=%d r=%d: non-deterministic repeat: %+v vs %+v",
							m.Name, lock, threads, ratio, again, row)
					}
				}
				res.Rows = append(res.Rows, row)
			}
		}
	}
	return res, nil
}

// contentionRow runs one cell: sync.Hammer on a fresh kernel whose
// metrics registry yields the acquisition-latency columns.
func contentionRow(m *arch.Machine, lock string, threads, ratio, iters int) (ContentionRow, error) {
	cores := min(max(threads/ratio, 1), m.Cores())
	row := ContentionRow{Lock: lock, Threads: threads, Ratio: ratio, Cores: cores}
	o := Planes
	reg := metrics.NewRegistry()
	o.Metrics = reg
	ops := iters / threads
	var e *sim.Engine
	var hammerErr error
	err := runKernel(m, o, func(k *kernel.Kernel, root *kernel.Task, _ planes.Planes) {
		e = k.Engine()
		l, err := usync.New(root, lock, usync.Config{})
		if err == nil {
			err = usync.Hammer(root, l, threads, cores, ops)
		}
		hammerErr = err
	})
	if err == nil {
		err = hammerErr
	}
	h := reg.Histogram("sync." + lock + ".acquire_ps")
	if err == nil && h.Count() != uint64(threads*ops) {
		err = fmt.Errorf("histogram saw %d acquisitions, want %d", h.Count(), threads*ops)
	}
	if err != nil {
		return row, fmt.Errorf("contention %s/%s t=%d r=%d: %v", m.Name, lock, threads, ratio, err)
	}
	row.Virt = e.Now().Sub(sim.Time(0))
	row.AcqP50 = sim.Duration(h.Quantile(0.50))
	row.AcqP99 = sim.Duration(h.Quantile(0.99))
	row.Contended = reg.Counter("sync." + lock + ".contended").Value()
	return row, nil
}

// PrintContention renders the sweep as a table.
func PrintContention(w io.Writer, r ContentionResult) {
	fmt.Fprintf(w, "== contention sweep (%s, %s grid, %d acquisitions/row, runs=%d) ==\n",
		r.Machine.Name, r.Config.Label, r.Config.Iters, Runs)
	fmt.Fprintf(w, "%-8s %8s %6s %6s %12s %12s %12s %10s\n",
		"lock", "threads", "ratio", "cores", "ns/op", "acq p50", "acq p99", "contended")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-8s %8d %6d %6d %12.1f %12v %12v %10d\n",
			row.Lock, row.Threads, row.Ratio, row.Cores,
			row.NsPerOp(r.Config.Iters), row.AcqP50, row.AcqP99, row.Contended)
	}
}

// ContentionRecords flattens a sweep into JSON records: per row, the
// ns-per-acquisition plus the p50/p99 acquisition latency (ns) pulled
// from the metrics histogram.
func ContentionRecords(r ContentionResult) []Record {
	recs := make([]Record, 0, 3*len(r.Rows))
	for _, row := range r.Rows {
		series := fmt.Sprintf("%s/r%d", row.Lock, row.Ratio)
		recs = append(recs,
			Record{Experiment: "contention", Machine: r.Machine.Name, Series: series,
				Size: row.Threads, Ns: row.NsPerOp(r.Config.Iters)},
			Record{Experiment: "contention-p50", Machine: r.Machine.Name, Series: series,
				Size: row.Threads, Ns: row.AcqP50.Nanoseconds()},
			Record{Experiment: "contention-p99", Machine: r.Machine.Name, Series: series,
				Size: row.Threads, Ns: row.AcqP99.Nanoseconds()},
		)
	}
	return recs
}
