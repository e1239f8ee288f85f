package probe

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// This file holds the user-facing stock probes — the programs `ulpsim
// -probe` can attach by name — and the spec syntax that configures them.
// The other planes are programs too: planes.Install attaches them with
// the stock probes (faults, metrics, supervision), while the
// consistency audit (core, with Config.Audit) and timelines
// (timeline.Recorder.Attach) attach themselves.
// Tracing is not a program: the kernel writes trace records straight to
// the engine's sim.Tracer.
//
// Spec syntax is the grammar -faults shares (ParseList): semicolon-
// separated probes, each "name:key=val,key=val,...". Example:
//
//	throttle:task=t2.,interval_us=50,burst=4;slo:syscall=open,p99_us=800

// Spec is one parsed -probe entry.
type Spec struct {
	// Name selects the stock probe: "throttle", "slo" or "count".
	Name string
	// Task restricts the probe to tasks whose name starts with this
	// prefix; empty matches every task.
	Task string
	// Syscall restricts syscall-point probes to one syscall name; empty
	// matches all. A name that is no syscall is a parse error.
	Syscall string
	// IntervalUS is the throttle refill interval: one token per interval
	// of virtual time.
	IntervalUS uint64
	// Burst is the throttle bucket depth (default 1).
	Burst uint64
	// P99US is the SLO bound on the p99 latency, in microseconds.
	P99US uint64
	// Points are the attach points of a count probe.
	Points []Point

	raw string
}

// String renders the spec in the -probe flag syntax (parseable back).
func (s Spec) String() string { return s.raw }

// stockNames lists the -probe stock probes with their parameters, for
// -probe-list.
var stockNames = []string{
	"throttle  task=<prefix> interval_us=<n> [burst=<n>] [syscall=<name>]  — per-tenant syscall throttle at syscall:enter (deterministic virtual-time token bucket; refused calls are delayed, never failed)",
	"slo       p99_us=<n> [syscall=<name>] [task=<prefix>]                 — latency SLO checker at syscall:exit; aggregates exact log2 histograms and fails the run when p99 exceeds the bound",
	"count     points=<p1+p2+...> [task=<prefix>]                          — fire counter at arbitrary attach points, aggregated into the probe's private registry",
}

// ListStock renders the -probe-list text: every attach point, then every
// stock probe spec.
func ListStock() string {
	var b strings.Builder
	b.WriteString("attach points:\n")
	for _, p := range Points() {
		fmt.Fprintf(&b, "  %s\n", p)
	}
	b.WriteString("\nstock probes (-probe \"name:key=val,...;...\"):\n")
	for _, s := range stockNames {
		fmt.Fprintf(&b, "  %s\n", s)
	}
	return b.String()
}

// SpecsString renders a spec list in the grammar ParseList reads: each
// spec's String, joined by ";". Both -probe and -faults specs render
// through it.
func SpecsString[S fmt.Stringer](specs []S) string {
	var b strings.Builder
	for i, sp := range specs {
		if i > 0 {
			b.WriteByte(';')
		}
		b.WriteString(sp.String())
	}
	return b.String()
}

// ParseList parses the spec-list grammar -probe and -faults share:
// semicolon-separated specs, each "name:key=val,key=val,...". An empty
// spec is skipped, and space around a spec, its name, each option and
// each option's key and value is ignored. open turns a spec's name into a fresh spec (text is the
// spec as written), set applies one option and check validates the
// finished spec; every error comes back prefixed with what.
func ParseList[S any](what, s string, open func(name, text string) (S, error),
	set func(sp *S, key, val string) error, check func(*S) error) ([]S, error) {
	var specs []S
	for _, part := range strings.Split(s, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, opts, _ := strings.Cut(part, ":")
		sp, err := open(strings.TrimSpace(name), part)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", what, err)
		}
		if opts != "" {
			for _, kv := range strings.Split(opts, ",") {
				key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
				if !ok {
					return nil, fmt.Errorf("%s: bad option %q in spec %q (want key=val)", what, kv, part)
				}
				if err := set(&sp, strings.TrimSpace(key), strings.TrimSpace(val)); err != nil {
					return nil, fmt.Errorf("%s: spec %q: %w", what, part, err)
				}
			}
		}
		if err := check(&sp); err != nil {
			return nil, fmt.Errorf("%s: spec %q: %w", what, part, err)
		}
		specs = append(specs, sp)
	}
	return specs, nil
}

// ParseSpecs parses the -probe flag syntax.
func ParseSpecs(s string) ([]Spec, error) {
	return ParseList("probe", s, openSpec, (*Spec).setOption, (*Spec).validate)
}

// openSpec starts a spec for the stock probe name.
func openSpec(name, text string) (Spec, error) {
	switch name {
	case "throttle", "slo", "count":
		return Spec{Name: name, Burst: 1, raw: text}, nil
	}
	return Spec{}, fmt.Errorf("unknown stock probe %q (valid: throttle slo count)", name)
}

func (s *Spec) setOption(key, val string) error {
	switch key {
	case "task":
		s.Task = val
	case "syscall":
		if val != "" && !SiteByName(val).Syscall() {
			return fmt.Errorf("unknown syscall %q", val)
		}
		s.Syscall = val
	case "interval_us":
		n, err := strconv.ParseUint(val, 10, 64)
		if err != nil || n == 0 || n > maxUS {
			return fmt.Errorf("interval_us must be an integer in [1, %d], got %q", maxUS, val)
		}
		s.IntervalUS = n
	case "burst":
		n, err := strconv.ParseUint(val, 10, 64)
		if err != nil || n == 0 || n > math.MaxInt64 {
			return fmt.Errorf("burst must be an integer in [1, %d], got %q", int64(math.MaxInt64), val)
		}
		s.Burst = n
	case "p99_us":
		n, err := strconv.ParseUint(val, 10, 64)
		if err != nil || n == 0 || n > maxUS {
			return fmt.Errorf("p99_us must be an integer in [1, %d], got %q", maxUS, val)
		}
		s.P99US = n
	case "points":
		for _, name := range strings.Split(val, "+") {
			p := PointByName(strings.TrimSpace(name))
			if p == pInvalid {
				return fmt.Errorf("unknown attach point %q", name)
			}
			s.Points = append(s.Points, p)
		}
	default:
		return fmt.Errorf("unknown option %q", key)
	}
	return nil
}

// maxUS is the longest interval_us or p99_us whose picosecond value
// fits the int64 clock: beyond it the duration wraps, to zero (a throttle
// that divides by it) or negative (an SLO bound nothing meets).
const maxUS = uint64(math.MaxInt64 / sim.Microsecond)

func (s *Spec) validate() error {
	switch s.Name {
	case "throttle":
		if s.IntervalUS == 0 {
			return fmt.Errorf("throttle needs interval_us")
		}
	case "slo":
		if s.P99US == 0 {
			return fmt.Errorf("slo needs p99_us")
		}
	case "count":
		if len(s.Points) == 0 {
			return fmt.Errorf("count needs points")
		}
	}
	return nil
}

// Attachment is one spec attached to a registry: the program handle plus
// an optional post-run check (the SLO oracle).
type Attachment struct {
	Prog *Program
	// Check, when non-nil, validates the probe's aggregate after the run
	// (nil error = within bounds). Chaos and scale harnesses treat a
	// failed check like any other invariant violation.
	Check func() error
	// Report, when non-nil, renders a one-line post-run summary.
	Report func() string
}

// AttachSpecs builds and attaches every spec to r, returning the
// attachments in spec order.
func AttachSpecs(r *Registry, specs []Spec) []*Attachment {
	out := make([]*Attachment, 0, len(specs))
	for _, sp := range specs {
		out = append(out, attachSpec(r, sp))
	}
	return out
}

func attachSpec(r *Registry, sp Spec) *Attachment {
	switch sp.Name {
	case "throttle":
		th := NewThrottle(sp.Task, sp.Syscall,
			sim.Duration(sp.IntervalUS)*sim.Microsecond, int64(sp.Burst))
		return &Attachment{Prog: r.Attach(sp.raw, th.Fire, PSyscallEnter),
			Report: func() string {
				total, delayed := th.Stats()
				return fmt.Sprintf("%s: %d matched, %d delayed", sp.raw, total, delayed)
			}}
	case "slo":
		slo := NewSLO(sp.Task, sp.Syscall, sim.Duration(sp.P99US)*sim.Microsecond)
		pr := r.Attach(sp.raw, slo.Fire, PSyscallExit)
		slo.prog = pr
		return &Attachment{Prog: pr, Check: slo.Check,
			Report: func() string { return sp.raw + ": " + slo.Summary() }}
	case "count":
		cnt := &counter{task: sp.Task}
		pr := r.Attach(sp.raw, cnt.fire, sp.Points...)
		cnt.prog = pr
		return &Attachment{Prog: pr,
			Report: func() string { return sp.raw + ": " + cnt.summary() }}
	}
	panic("probe: unreachable: specs are validated at parse time")
}

// TaskMatches is the task-prefix scoping rule every program shares (the
// stock probes' task= and the fault plane's): an empty prefix matches
// everything, including task-less sites; a non-empty prefix requires a
// task whose name starts with it. The unscoped test inlines, so the
// common empty prefix costs a fire no call.
func TaskMatches(prefix string, t Task) bool {
	return prefix == "" || namePrefixed(t, prefix)
}

func namePrefixed(t Task, prefix string) bool {
	return t != nil && strings.HasPrefix(t.Name(), prefix)
}

// Throttle is the per-tenant syscall throttle: a token bucket refilled
// in virtual time (one token per interval, up to burst). A matching
// syscall with no token available is delayed until the next refill —
// charged to the calling task, so the cost lands exactly on the tenant
// being throttled. Purely a function of virtual time: deterministic
// under the seeded engine.
type Throttle struct {
	task     string
	syscall  SiteID // 0: every syscall
	interval sim.Duration
	burst    int64

	tokens int64
	// level is the virtual refill clock: the bucket was full at level,
	// and owes one token per interval since.
	level   sim.Time
	started bool

	delayed uint64
	total   uint64
}

// NewThrottle builds a throttle scoped to tasks with the given name
// prefix (empty = all) and optionally one syscall name.
func NewThrottle(taskPrefix, syscall string, interval sim.Duration, burst int64) *Throttle {
	if burst < 1 {
		burst = 1
	}
	return &Throttle{task: taskPrefix, syscall: syscallID(syscall), interval: interval, burst: burst}
}

// syscallID resolves a syscall= filter once, when its program is built:
// 0 (every syscall) for the empty name. ParseSpecs rejects other names
// that are no syscall, so one here is a caller's bug.
func syscallID(name string) SiteID {
	if name == "" {
		return siteNone
	}
	id := SiteByName(name)
	if !id.Syscall() {
		panic(fmt.Sprintf("probe: unknown syscall %q", name))
	}
	return id
}

// Fire is the probe program. Attach at PSyscallEnter.
func (th *Throttle) Fire(c *Ctx) Verdict {
	if c.Point != PSyscallEnter || !TaskMatches(th.task, c.Task) {
		return Verdict{}
	}
	if th.syscall != siteNone && c.ID != th.syscall {
		return Verdict{}
	}
	if !th.started {
		th.started = true
		th.tokens = th.burst
		th.level = c.Now
	}
	// Refill whole tokens owed since level; a bucket that would overflow
	// is full as of now (compared before adding, so a burst near the
	// int64 limit cannot wrap the count).
	if owed := int64(c.Now.Sub(th.level) / th.interval); owed > 0 {
		if owed > th.burst-th.tokens {
			th.tokens = th.burst
			th.level = c.Now
		} else {
			th.tokens += owed
			th.level = th.level.Add(sim.Duration(owed) * th.interval)
		}
	}
	th.total++
	if th.tokens > 0 {
		th.tokens--
		return Verdict{}
	}
	// Next token matures one interval after level; wait it out.
	delay := th.level.Add(th.interval).Sub(c.Now)
	th.level = th.level.Add(th.interval)
	th.delayed++
	return Verdict{Delay: delay}
}

// Stats reports how many matching syscalls the throttle saw and how
// many it delayed.
func (th *Throttle) Stats() (total, delayed uint64) { return th.total, th.delayed }

// SLO is the live latency-SLO checker: it aggregates matching syscall
// latencies into exact log2 histograms (per syscall name, in the
// program's private registry) and Check reports whether the p99 stayed
// under the bound — a chaos/scale oracle that runs inside the
// simulation's own observability plane.
type SLO struct {
	task    string
	syscall SiteID // 0: every syscall
	p99     sim.Duration
	prog    *Program

	// hists holds each syscall's histogram from its first fire on (made
	// then, not at attach, so syscalls that never fire stay unreported);
	// a later fire builds no name and allocates nothing.
	hists [NumSites]*metrics.Histogram
}

// NewSLO builds an SLO checker for tasks with the given name prefix
// (empty = all) and optionally one syscall name.
func NewSLO(taskPrefix, syscall string, p99 sim.Duration) *SLO {
	return &SLO{task: taskPrefix, syscall: syscallID(syscall), p99: p99}
}

// Fire is the probe program. Attach at PSyscallExit.
func (s *SLO) Fire(c *Ctx) Verdict {
	if c.Point != PSyscallExit || !TaskMatches(s.task, c.Task) {
		return Verdict{}
	}
	if s.syscall != siteNone && c.ID != s.syscall {
		return Verdict{}
	}
	h := s.hists[c.ID]
	if h == nil {
		h = s.prog.Agg().Histogram("slo.ps." + c.Site)
		s.hists[c.ID] = h
	}
	h.Observe(int64(c.Dur))
	return Verdict{}
}

// Check validates the aggregate against the bound: an error names every
// syscall whose observed p99 exceeded it.
func (s *SLO) Check() error {
	if s.prog == nil || s.prog.agg == nil {
		return nil
	}
	var bad []string
	for _, sm := range s.prog.agg.Snapshot() {
		name, ok := strings.CutSuffix(sm.Name, ".p99")
		if !ok || sm.Kind != "hist" {
			continue
		}
		if sim.Duration(sm.Value) > s.p99 {
			bad = append(bad, fmt.Sprintf("%s p99=%v > bound %v",
				strings.TrimPrefix(name, "slo.ps."), sim.Duration(sm.Value), s.p99))
		}
	}
	if len(bad) == 0 {
		return nil
	}
	sort.Strings(bad)
	return fmt.Errorf("probe: SLO violated: %s", strings.Join(bad, "; "))
}

// Summary renders the observed p99 per syscall against the bound.
func (s *SLO) Summary() string {
	if s.prog == nil || s.prog.agg == nil {
		return "no samples"
	}
	var parts []string
	for _, sm := range s.prog.agg.Snapshot() {
		name, ok := strings.CutSuffix(sm.Name, ".p99")
		if !ok || sm.Kind != "hist" {
			continue
		}
		parts = append(parts, fmt.Sprintf("%s p99=%v (bound %v)",
			strings.TrimPrefix(name, "slo.ps."), sim.Duration(sm.Value), s.p99))
	}
	if len(parts) == 0 {
		return "no samples"
	}
	sort.Strings(parts)
	return strings.Join(parts, ", ")
}

// counter is the count stock probe: per-point fire counters in the
// program's private registry.
type counter struct {
	task string
	prog *Program

	// fires caches each point's counter from its first fire on (created
	// then, not at attach, so points that never fire stay unreported).
	fires [NumPoints]*metrics.Counter
}

func (c *counter) fire(ctx *Ctx) Verdict {
	if TaskMatches(c.task, ctx.Task) {
		n := c.fires[ctx.Point]
		if n == nil {
			n = c.prog.Agg().Counter("fires." + ctx.Point.String())
			c.fires[ctx.Point] = n
		}
		n.Inc()
	}
	return Verdict{}
}

// summary renders the per-point fire counts.
func (c *counter) summary() string {
	if c.prog == nil || c.prog.agg == nil {
		return "no fires"
	}
	var parts []string
	for _, sm := range c.prog.agg.Snapshot() {
		if sm.Kind == "counter" {
			parts = append(parts, fmt.Sprintf("%s=%d",
				strings.TrimPrefix(sm.Name, "fires."), uint64(sm.Value)))
		}
	}
	if len(parts) == 0 {
		return "no fires"
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}
