// Package fault is the deterministic fault-injection plane for the
// simulated ULP-PiP stack: a probe program at the kernel's fault:site
// and fault:armed points. A Plane is a set of Specs, each naming an
// injection site in the kernel/runtime and a firing rule (probability,
// nth hit, or every-nth hit), driven by per-spec SplitMix64 streams
// derived from one seed. The same (seed, specs) pair therefore
// reproduces the exact same fault schedule in virtual time, no matter
// how many other specs are active — which is what makes chaos failures
// replayable from a single seed.
//
// The probe layer owns the plane's vocabulary: a site is a probe.SiteID
// (Sites lists the ones the plane answers; internal/kernel/fault.go has
// the verdict at each), -faults parses with probe.ParseList and renders
// with probe.SpecsString, and task= scopes with probe.TaskMatches. The
// plane files its specs by site ID when it is built, so a fire walks
// only the specs of its own site (in spec order) and compares no names.
package fault

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/probe"
	"repro/internal/sim"
)

// Sites lists every injection site the runtime consults, in stable order.
var Sites = []probe.SiteID{
	probe.SiteOpen, probe.SiteWrite, probe.SiteRead, probe.SiteFutexWait,
	probe.SiteFutexSpurious, probe.SiteFutexLostWake,
	probe.SiteKCKill, probe.SiteSchedKill, probe.SiteAIOHelperKill,
	probe.SiteSchedDelay, probe.SiteFSSlow,
}

// Spec is one fault rule: where it can fire, when it fires, and what it
// injects. Exactly one of Prob / Nth / Every selects the firing rule
// (Prob if none is set is 0, i.e. the spec never fires).
type Spec struct {
	// Site is the injection site (one of Sites).
	Site probe.SiteID
	// TaskPrefix restricts the spec to tasks whose name starts with this
	// prefix; empty matches every task. This is the isolation lever: a
	// spec scoped to one tenant's tasks cannot perturb any other task's
	// event schedule.
	TaskPrefix string

	// Prob fires with this probability per hit (0..1), drawn from the
	// spec's private RNG stream.
	Prob float64
	// Nth fires on exactly the nth matching hit (1-based), once.
	Nth uint64
	// Every fires on every every-th matching hit.
	Every uint64
	// Count caps the total number of fires (0 = unlimited).
	Count uint64

	// Err selects the injected error for syscall sites: "eintr" (default),
	// "eagain" or "enospc".
	Err string
	// DelayUS is the injected latency in microseconds (sched_delay).
	DelayUS uint64
	// Factor is the I/O cost multiplier (fs_slow); values <= 1 disable.
	// The plane answers fs_slow with the extra time as a Delay.
	Factor float64
}

// String renders the spec in the -faults flag syntax (parseable back).
func (s Spec) String() string {
	var b strings.Builder
	b.WriteString(s.Site.String())
	sep := ":"
	put := func(k, v string) {
		b.WriteString(sep)
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(v)
		sep = ","
	}
	if s.Prob > 0 {
		put("prob", strconv.FormatFloat(s.Prob, 'g', -1, 64))
	}
	if s.Nth > 0 {
		put("nth", strconv.FormatUint(s.Nth, 10))
	}
	if s.Every > 0 {
		put("every", strconv.FormatUint(s.Every, 10))
	}
	if s.Count > 0 {
		put("count", strconv.FormatUint(s.Count, 10))
	}
	if s.Err != "" {
		put("err", s.Err)
	}
	if s.DelayUS > 0 {
		put("delay_us", strconv.FormatUint(s.DelayUS, 10))
	}
	if s.Factor > 0 {
		put("factor", strconv.FormatFloat(s.Factor, 'g', -1, 64))
	}
	if s.TaskPrefix != "" {
		put("task", s.TaskPrefix)
	}
	return b.String()
}

// ParseSpecs parses the -faults flag syntax (probe.ParseList): specs
// "site:key=val,key=val,..." separated by semicolons. Example:
//
//	futex_lost_wake:prob=0.01;kc_kill:nth=3,task=kc.t2;fs_slow:factor=8
func ParseSpecs(s string) ([]Spec, error) {
	return probe.ParseList("fault", s, openSpec, (*Spec).setOption, (*Spec).validate)
}

// openSpec starts a spec at the named site.
func openSpec(name, _ string) (Spec, error) {
	if id := probe.SiteByName(name); slices.Contains(Sites, id) {
		return Spec{Site: id}, nil
	}
	// Sites prints as "[open write ...]".
	return Spec{}, fmt.Errorf("unknown site %q (valid: %s)", name, strings.Trim(fmt.Sprint(Sites), "[]"))
}

func (s *Spec) setOption(key, val string) error {
	switch key {
	case "prob":
		f, err := strconv.ParseFloat(val, 64)
		if err != nil || !(f >= 0 && f <= 1) {
			return fmt.Errorf("prob must be in [0,1], got %q", val)
		}
		s.Prob = f
	case "nth":
		n, err := strconv.ParseUint(val, 10, 64)
		if err != nil || n == 0 {
			return fmt.Errorf("nth must be a positive integer, got %q", val)
		}
		s.Nth = n
	case "every":
		n, err := strconv.ParseUint(val, 10, 64)
		if err != nil || n == 0 {
			return fmt.Errorf("every must be a positive integer, got %q", val)
		}
		s.Every = n
	case "count":
		n, err := strconv.ParseUint(val, 10, 64)
		if err != nil {
			return fmt.Errorf("count must be an integer, got %q", val)
		}
		s.Count = n
	case "err":
		switch val {
		case "eintr", "eagain", "enospc":
			s.Err = val
		default:
			return fmt.Errorf("err must be eintr, eagain or enospc, got %q", val)
		}
	case "delay_us":
		n, err := strconv.ParseUint(val, 10, 64)
		if err != nil || n > maxDelayUS {
			return fmt.Errorf("delay_us must be an integer <= %d, got %q", maxDelayUS, val)
		}
		s.DelayUS = n
	case "factor":
		// The factor scales picosecond costs: beyond MaxInt64 even a 1ps
		// cost would overflow the clock (and Inf/NaN convert to garbage).
		f, err := strconv.ParseFloat(val, 64)
		if err != nil || !(f >= 1 && f < math.MaxInt64) {
			return fmt.Errorf("factor must be finite, >= 1 and < 2^63, got %q", val)
		}
		s.Factor = f
	case "task":
		s.TaskPrefix = val
	default:
		return fmt.Errorf("unknown option %q", key)
	}
	return nil
}

func (s *Spec) validate() error {
	rules := 0
	if s.Prob > 0 {
		rules++
	}
	if s.Nth > 0 {
		rules++
	}
	if s.Every > 0 {
		rules++
	}
	if rules > 1 {
		return errors.New("at most one of prob/nth/every")
	}
	if s.Site == probe.SiteFSSlow {
		if s.Factor < 1 {
			return errors.New("fs_slow needs factor>=1")
		}
		// fs_slow is a standing condition, not a per-hit fire.
		return nil
	}
	if rules == 0 {
		return errors.New("needs one of prob/nth/every")
	}
	if s.Site == probe.SiteSchedDelay && s.DelayUS == 0 {
		return errors.New("sched_delay needs delay_us")
	}
	return nil
}

// maxDelayUS is the longest sched_delay whose picosecond value fits the
// int64 clock.
const maxDelayUS = uint64(math.MaxInt64 / sim.Microsecond)

// injErr maps a spec's Err to the kernel error it injects.
func (s *Spec) injErr() error {
	switch s.Err {
	case "eagain":
		return kernel.ErrTryAgain
	case "enospc":
		return kernel.ErrNoSpace
	default:
		return kernel.ErrInterrupted
	}
}

// armed is a spec plus its private RNG stream and counters.
type armed struct {
	Spec
	rng   *sim.RNG
	hits  uint64
	fires uint64
}

// decide registers one hit and reports whether the spec fires on it. It
// consumes randomness only from the spec's own stream, so adding or
// removing other specs never shifts this spec's schedule.
func (a *armed) decide() bool {
	a.hits++
	fire := false
	switch {
	case a.Nth > 0:
		fire = a.hits == a.Nth
	case a.Every > 0:
		fire = a.hits%a.Every == 0
	case a.Prob > 0:
		fire = a.rng.Float64() < a.Prob
	}
	if fire && a.Count > 0 && a.fires >= a.Count {
		fire = false
	}
	if fire {
		a.fires++
	}
	return fire
}

// Plane is a deterministic fault plane built from a seed and specs. It
// acts only once attached to a kernel's probe registry (Attach).
type Plane struct {
	specs []*armed
	// bySite files the specs by site, each list in spec order: a fire
	// walks only its own site's specs.
	bySite [probe.NumSites][]*armed
}

// NewPlane builds a plane. Spec i draws from stream sim.SplitMix(seed,
// i+1), so per-spec schedules are independent and stable under spec
// reordering of *other* sites.
func NewPlane(seed uint64, specs []Spec) *Plane {
	p := &Plane{}
	for i, s := range specs {
		a := &armed{
			Spec: s,
			rng:  sim.NewRNG(sim.SplitMix(seed, uint64(i)+1)),
		}
		p.specs = append(p.specs, a)
		p.bySite[s.Site] = append(p.bySite[s.Site], a)
	}
	return p
}

// Attach attaches the plane to r as a probe program at fault:site and
// fault:armed and returns its handle (Registry.Detach removes it). Attach
// before the simulation runs for deterministic schedules; where several
// programs can fail the same site, attach order decides whose Err wins.
func (p *Plane) Attach(r *probe.Registry) *probe.Program {
	return r.Attach("fault", p.fire, probe.PFaultSite, probe.PFaultArmed)
}

// fire is the plane's probe program: it answers each site with the
// verdict the kernel applies there (Err for syscall sites, Drop for
// spurious wakes, lost wakes and kills, Delay for sched_delay and
// fs_slow; Drop at fault:armed means armed).
func (p *Plane) fire(c *probe.Ctx) probe.Verdict {
	if c.Point == probe.PFaultArmed {
		return probe.Verdict{Drop: p.isArmed(c.Task, c.ID)}
	}
	switch c.ID {
	case probe.SiteFutexLostWake:
		// The decision is about the waiter (spec task scoping keys on
		// it); the firing task is the waker.
		return probe.Verdict{Drop: p.boolSite(c.Waiter, c.ID)}
	case probe.SiteFutexSpurious, probe.SiteKCKill, probe.SiteSchedKill, probe.SiteAIOHelperKill:
		return probe.Verdict{Drop: p.boolSite(c.Task, c.ID)}
	case probe.SiteSchedDelay:
		return probe.Verdict{Delay: p.extraDelay(c.Task, c.ID)}
	case probe.SiteFSSlow:
		return probe.Verdict{Delay: p.ioDelay(c.Task, c.Dur)}
	}
	return probe.Verdict{Err: p.syscallError(c.Task, c.ID)}
}

// syscallError decides a syscall site: the injected error, or nil.
func (p *Plane) syscallError(t probe.Task, id probe.SiteID) error {
	for _, a := range p.bySite[id] {
		if probe.TaskMatches(a.TaskPrefix, t) && a.decide() {
			return a.injErr()
		}
	}
	return nil
}

// boolSite decides a yes/no site (spurious wake, lost wake, kill).
func (p *Plane) boolSite(t probe.Task, id probe.SiteID) bool {
	fire := false
	for _, a := range p.bySite[id] {
		if probe.TaskMatches(a.TaskPrefix, t) && a.decide() {
			fire = true
			// Keep evaluating so every matching spec's stream advances
			// the same way whether or not an earlier spec fired.
		}
	}
	return fire
}

// extraDelay sums the delays of every matching spec that fires,
// saturating at the longest representable duration.
func (p *Plane) extraDelay(t probe.Task, id probe.SiteID) sim.Duration {
	var d sim.Duration
	for _, a := range p.bySite[id] {
		if probe.TaskMatches(a.TaskPrefix, t) && a.decide() {
			add := sim.Duration(math.MaxInt64)
			if a.DelayUS <= maxDelayUS {
				add = sim.Duration(a.DelayUS) * sim.Microsecond
			}
			if d > math.MaxInt64-add {
				d = math.MaxInt64
			} else {
				d += add
			}
		}
	}
	return d
}

// ioScale is the fs_slow factor: a standing condition, so every matching
// spec's factor applies to every matching I/O.
func (p *Plane) ioScale(t probe.Task, id probe.SiteID) float64 {
	f := 1.0
	for _, a := range p.bySite[id] {
		if a.Factor > 1 && probe.TaskMatches(a.TaskPrefix, t) {
			f *= a.Factor
		}
	}
	return f
}

// ioDelay is the fs_slow answer for an I/O of the given cost: the time
// the factor adds to it, so that cost plus delay is the scaled cost,
// saturating at the longest representable duration.
func (p *Plane) ioDelay(t probe.Task, cost sim.Duration) sim.Duration {
	f := p.ioScale(t, probe.SiteFSSlow)
	if f <= 1 {
		return 0
	}
	scaled := float64(cost) * f
	if scaled >= math.MaxInt64 {
		return math.MaxInt64
	}
	return max(sim.Duration(scaled)-cost, 0)
}

// isArmed reports whether some spec could ever fire for (task, site).
// It consumes no randomness and registers no hit, so recovery code may
// ask freely without perturbing schedules.
func (p *Plane) isArmed(t probe.Task, id probe.SiteID) bool {
	for _, a := range p.bySite[id] {
		if probe.TaskMatches(a.TaskPrefix, t) {
			return true
		}
	}
	return false
}

// Injections reports the total number of fires across all specs (part of
// the chaos determinism digest).
func (p *Plane) Injections() uint64 {
	var n uint64
	for _, a := range p.specs {
		n += a.fires
	}
	return n
}

// PublishMetrics folds the plane's per-site hit/fire totals into a
// metrics registry as "fault.<site>.hits" / "fault.<site>.fires"
// counters. Specs sharing a site aggregate. Call after the run (the
// counts are cumulative snapshots, not live increments).
func (p *Plane) PublishMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	for _, a := range p.specs {
		reg.Counter("fault." + a.Site.String() + ".hits").Add(a.hits)
		reg.Counter("fault." + a.Site.String() + ".fires").Add(a.fires)
	}
}

// Stats returns one line per spec: "<spec> hits=H fires=F", sorted by
// site then spec text for stable output.
func (p *Plane) Stats() []string {
	out := make([]string, 0, len(p.specs))
	for _, a := range p.specs {
		out = append(out, fmt.Sprintf("%s hits=%d fires=%d", a.Spec.String(), a.hits, a.fires))
	}
	sort.Strings(out)
	return out
}
