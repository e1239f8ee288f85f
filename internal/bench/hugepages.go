package bench

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/arch"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/sim"
)

// HugePageResult quantifies the paper's §VII remark that ULP/ULT cannot
// help with page-fault blocking, but that "in the context of HPC ...
// handling of page faults at ULP or ULT can be ignored if larger page
// sizes and/or populated mmap are used": first-touch cost of a working
// set under the three mapping strategies.
type HugePageResult struct {
	Machine   *arch.Machine
	SetBytes  uint64
	Mode      string // "4K demand", "2M huge", "4K populated"
	Faults    uint64
	TLBMisses uint64
	TouchTime sim.Duration // time to first-touch the whole set
	MapTime   sim.Duration // time spent in mmap (includes populate)
}

// HugePages measures all three strategies for a 32 MiB working set.
func HugePages(m *arch.Machine) ([]HugePageResult, error) {
	const set = 32 << 20
	modes := []struct {
		name      string
		huge      bool
		populated bool
	}{
		{"4K demand", false, false},
		{"2M huge", true, false},
		{"4K populated", false, true},
	}
	var out []HugePageResult
	for _, mode := range modes {
		res := HugePageResult{Machine: m, SetBytes: set, Mode: mode.name}
		err := RunKernel(m, func(k *kernel.Kernel, root *kernel.Task) {
			e := k.Engine()
			space := root.Space()
			before := space.Stats()
			t0 := e.Now()
			var addr uint64
			var err error
			if mode.huge {
				addr, err = space.MmapHuge(set, mem.ProtRead|mem.ProtWrite, "hp", mode.populated, root)
			} else {
				addr, err = space.Mmap(set, mem.ProtRead|mem.ProtWrite, "hp", mode.populated, root)
			}
			if err != nil {
				panic(err)
			}
			res.MapTime = e.Now().Sub(t0)
			t0 = e.Now()
			// First-touch sweep, one write per base page.
			one := []byte{1}
			for off := uint64(0); off < set; off += mem.PageSize {
				if err := root.MemWrite(addr+off, one); err != nil {
					panic(err)
				}
			}
			res.TouchTime = e.Now().Sub(t0)
			after := space.Stats()
			res.Faults = after.MinorFaults - before.MinorFaults
			res.TLBMisses = after.TLBMisses - before.TLBMisses
		})
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// PrintHugePages renders A8.
func PrintHugePages(w io.Writer, results []HugePageResult) {
	fmt.Fprintf(w, "ABLATION A8 — PAGE FAULTS: 32 MiB FIRST TOUCH (%s)\n", results[0].Machine.Name)
	fmt.Fprintf(w, "%-14s %10s %12s %14s %14s\n", "mapping", "faults", "TLB misses", "touch[us]", "mmap[us]")
	fmt.Fprintln(w, strings.Repeat("-", 68))
	for _, r := range results {
		fmt.Fprintf(w, "%-14s %10d %12d %14.1f %14.1f\n",
			r.Mode, r.Faults, r.TLBMisses,
			r.TouchTime.Microseconds(), r.MapTime.Microseconds())
	}
}
