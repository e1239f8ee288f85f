// Package metrics is the deterministic metrics plane of the simulated
// ULP-PiP stack: counters, gauges and log₂-bucketed histograms keyed by
// name in a Registry. All values derive from virtual time and seeded
// schedules, so two runs with the same seed and configuration produce
// byte-identical Dump output — the observability analogue of the chaos
// digest guarantee.
//
// Subsystems consult the registry through nil-checkable handles cached
// at setup (kernel.SetMetrics and friends): with no registry installed
// the hot paths cost one pointer comparison and allocate nothing, which
// the alloc regression tests pin.
//
// Histograms record int64 values (latencies in picoseconds, depths in
// plain units) into power-of-two buckets; quantiles report the bucket
// upper bound, so they are exact functions of the recorded multiset and
// never depend on sampling or float summation order.
package metrics

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
)

// Counter is a monotonically increasing count.
type Counter struct {
	v uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v += n }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v }

// Gauge is a signed instantaneous value that also remembers its maximum.
type Gauge struct {
	v   int64
	max int64
	set bool
}

// Set replaces the value.
func (g *Gauge) Set(v int64) {
	g.v = v
	if !g.set || v > g.max {
		g.max = v
	}
	g.set = true
}

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v }

// Max returns the largest value ever Set.
func (g *Gauge) Max() int64 { return g.max }

// histBuckets is the bucket count: bucket 0 holds zeros, bucket i holds
// values in [2^(i-1), 2^i). Non-negative int64 values occupy 0..63.
const histBuckets = 64

// Histogram is a log₂-bucketed distribution of non-negative int64
// values with exact count, sum, min and max.
type Histogram struct {
	buckets [histBuckets]uint64
	count   uint64
	sum     int64
	min     int64
	max     int64
}

// Observe records one value. Negative values are clamped to zero.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bits.Len64(uint64(v))]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the exact sum of observations.
func (h *Histogram) Sum() int64 { return h.sum }

// Min returns the exact smallest observation (0 when empty).
func (h *Histogram) Min() int64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the exact largest observation (0 when empty).
func (h *Histogram) Max() int64 { return h.max }

// Quantile returns the upper bound of the bucket containing the q-th
// quantile (0 < q <= 1): an exact, deterministic over-estimate within 2x
// of the true order statistic.
func (h *Histogram) Quantile(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, n := range h.buckets {
		cum += n
		if cum >= rank {
			return bucketUpper(i)
		}
	}
	return h.max
}

// bucketUpper is the largest value bucket i can hold.
func bucketUpper(i int) int64 {
	if i == 0 {
		return 0
	}
	if i >= 63 {
		return math.MaxInt64
	}
	return (int64(1) << uint(i)) - 1
}

// merge folds o's observations into h (bucket-wise; min/max/sum exact).
func (h *Histogram) merge(o *Histogram) {
	if o.count == 0 {
		return
	}
	for i := range h.buckets {
		h.buckets[i] += o.buckets[i]
	}
	if h.count == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.count += o.count
	h.sum += o.sum
}

// Registry holds named metrics. Lookups are get-or-create and return
// stable pointers, so subsystems resolve their handles once at setup and
// never touch the maps on hot paths.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it at zero.
func (r *Registry) Counter(name string) *Counter {
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it at zero.
func (r *Registry) Gauge(name string) *Gauge {
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it empty.
func (r *Registry) Histogram(name string) *Histogram {
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Merge folds o into r: counters and histograms add, gauges keep the
// maximum of the two current values. Addition and max are commutative,
// so merging per-run registries in any order (the parallel bench
// harness) yields the same aggregate.
func (r *Registry) Merge(o *Registry) {
	for name, c := range o.counters {
		r.Counter(name).Add(c.v)
	}
	for name, g := range o.gauges {
		dst := r.Gauge(name)
		if !dst.set || g.v > dst.v {
			dst.Set(g.v)
		}
		if g.max > dst.max {
			dst.max = g.max
		}
	}
	for name, h := range o.hists {
		r.Histogram(name).merge(h)
	}
}

// Sample is one flattened metric value (histograms expand to derived
// .count/.p50/.p90/.p95/.p99/.max/.sum samples).
type Sample struct {
	Kind  string // "counter", "gauge" or "hist"
	Name  string
	Value float64
}

// Snapshot flattens the registry into samples sorted by name — the
// machine-readable view ulpbench merges into its JSON report.
func (r *Registry) Snapshot() []Sample {
	out := make([]Sample, 0, len(r.counters)+len(r.gauges)+7*len(r.hists))
	for name, c := range r.counters {
		out = append(out, Sample{Kind: "counter", Name: name, Value: float64(c.v)})
	}
	for name, g := range r.gauges {
		out = append(out, Sample{Kind: "gauge", Name: name, Value: float64(g.v)})
	}
	for name, h := range r.hists {
		out = append(out,
			Sample{Kind: "hist", Name: name + ".count", Value: float64(h.count)},
			Sample{Kind: "hist", Name: name + ".p50", Value: float64(h.Quantile(0.50))},
			Sample{Kind: "hist", Name: name + ".p90", Value: float64(h.Quantile(0.90))},
			Sample{Kind: "hist", Name: name + ".p95", Value: float64(h.Quantile(0.95))},
			Sample{Kind: "hist", Name: name + ".p99", Value: float64(h.Quantile(0.99))},
			Sample{Kind: "hist", Name: name + ".max", Value: float64(h.Max())},
			Sample{Kind: "hist", Name: name + ".sum", Value: float64(h.sum)},
		)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

// Dump writes every metric sorted by name, one per line. The output is a
// pure function of the recorded values: same seed and configuration,
// byte-identical dump.
func (r *Registry) Dump(w io.Writer) error {
	type line struct{ name, text string }
	lines := make([]line, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for name, c := range r.counters {
		lines = append(lines, line{name, fmt.Sprintf("counter  %-44s %d", name, c.v)})
	}
	for name, g := range r.gauges {
		lines = append(lines, line{name, fmt.Sprintf("gauge    %-44s %d (max %d)", name, g.v, g.max)})
	}
	for name, h := range r.hists {
		lines = append(lines, line{name, fmt.Sprintf(
			"hist     %-44s count=%d min=%d p50=%d p90=%d p95=%d p99=%d max=%d sum=%d",
			name, h.count, h.Min(), h.Quantile(0.50), h.Quantile(0.90),
			h.Quantile(0.95), h.Quantile(0.99), h.Max(), h.sum)})
	}
	sort.Slice(lines, func(i, j int) bool {
		if lines[i].name != lines[j].name {
			return lines[i].name < lines[j].name
		}
		return lines[i].text < lines[j].text
	})
	for _, l := range lines {
		if _, err := fmt.Fprintln(w, l.text); err != nil {
			return err
		}
	}
	return nil
}
