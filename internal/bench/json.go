package bench

import (
	"encoding/json"
	"os"
)

// Record is one machine-readable benchmark result row, written by
// `ulpbench -json` so the perf trajectory of the reproduction can be
// tracked across PRs. Two flavors share the schema:
//
//   - simulation rows: virtual-time results of the paper's experiments
//     (Ns is simulated nanoseconds; Series names the mechanism/row);
//   - harness rows (Series "harness"): wall-clock and allocation cost of
//     generating the experiment, measuring the simulator itself.
type Record struct {
	Experiment string  `json:"experiment"`
	Machine    string  `json:"machine,omitempty"`
	Series     string  `json:"series,omitempty"`
	Size       int     `json:"size,omitempty"`
	Ns         float64 `json:"ns"`
	Allocs     uint64  `json:"allocs,omitempty"`

	// Scale-suite memory columns (fan-in rows only): allocations during
	// the FutexWake drain and retained bytes per idle blocked task, in
	// total and split into goroutine stack and heap.
	WakeAllocs        uint64  `json:"wake_allocs,omitempty"`
	BytesPerTask      float64 `json:"bytes_per_task,omitempty"`
	StackBytesPerTask float64 `json:"stack_bytes_per_task,omitempty"`
	HeapBytesPerTask  float64 `json:"heap_bytes_per_task,omitempty"`
}

// WriteRecordsJSON writes records as an indented JSON array to path.
func WriteRecordsJSON(path string, recs []Record) error {
	data, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	return os.WriteFile(path, data, 0o644)
}

// Fig7Records flattens a per-machine Fig. 7 result map into records
// (baseline plus each mechanism, virtual ns per size).
func Fig7Records(results map[string]Fig7Result) []Record {
	var recs []Record
	for _, name := range MachineOrder {
		r, ok := results[name]
		if !ok {
			continue
		}
		for i, size := range r.Sizes {
			recs = append(recs, Record{
				Experiment: "fig7", Machine: name, Series: "baseline",
				Size: size, Ns: r.Baseline[i].Nanoseconds(),
			})
			for _, mech := range Fig7Mechanisms {
				recs = append(recs, Record{
					Experiment: "fig7", Machine: name, Series: mech,
					Size: size, Ns: r.Times[mech][i].Nanoseconds(),
				})
			}
		}
	}
	return recs
}

// Fig8Records flattens a per-machine Fig. 8 result map into records.
// Fig. 8 measures an overlap ratio, not a time, so the Ns column carries
// the overlap percentage; the experiment name flags the unit.
func Fig8Records(results map[string]Fig8Result) []Record {
	var recs []Record
	for _, name := range MachineOrder {
		r, ok := results[name]
		if !ok {
			continue
		}
		for i, size := range r.Sizes {
			for _, mech := range Fig7Mechanisms {
				recs = append(recs, Record{
					Experiment: "fig8-overlap-pct", Machine: name, Series: mech,
					Size: size, Ns: r.Overlap[mech][i],
				})
			}
		}
	}
	return recs
}

// Table3Records flattens Table III results.
func Table3Records(results map[string]Table3Result) []Record {
	var recs []Record
	for _, name := range MachineOrder {
		r, ok := results[name]
		if !ok {
			continue
		}
		recs = append(recs,
			Record{Experiment: "table3", Machine: name, Series: "ctx-switch", Ns: r.CtxSwitch.Time.Nanoseconds()},
			Record{Experiment: "table3", Machine: name, Series: "load-tls", Ns: r.LoadTLS.Time.Nanoseconds()},
		)
	}
	return recs
}

// Table4Records flattens Table IV results.
func Table4Records(results map[string]Table4Result) []Record {
	var recs []Record
	for _, name := range MachineOrder {
		r, ok := results[name]
		if !ok {
			continue
		}
		recs = append(recs,
			Record{Experiment: "table4", Machine: name, Series: "ulp-yield", Ns: r.ULPYield.Time.Nanoseconds()},
			Record{Experiment: "table4", Machine: name, Series: "sched-yield-1core", Ns: r.SchedYield1Core.Time.Nanoseconds()},
			Record{Experiment: "table4", Machine: name, Series: "sched-yield-2core", Ns: r.SchedYield2Core.Time.Nanoseconds()},
		)
	}
	return recs
}

// Table5Records flattens Table V results.
func Table5Records(results map[string]Table5Result) []Record {
	var recs []Record
	for _, name := range MachineOrder {
		r, ok := results[name]
		if !ok {
			continue
		}
		recs = append(recs,
			Record{Experiment: "table5", Machine: name, Series: "linux", Ns: r.Linux.Time.Nanoseconds()},
			Record{Experiment: "table5", Machine: name, Series: "ulp-busywait", Ns: r.BusyWait.Time.Nanoseconds()},
			Record{Experiment: "table5", Machine: name, Series: "ulp-blocking", Ns: r.Blocking.Time.Nanoseconds()},
		)
	}
	return recs
}

// MachineOrder is the paper's machine presentation order, used whenever
// per-machine maps are flattened to deterministic sequences.
var MachineOrder = []string{"Wallaby", "Albireo"}
