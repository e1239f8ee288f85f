package fault

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/kernel"
	"repro/internal/probe"
	"repro/internal/sim"
)

func TestParseSpecs(t *testing.T) {
	specs, err := ParseSpecs("futex_lost_wake:prob=0.25;kc_kill:nth=3,task=kc.t2;fs_slow:factor=8;sched_delay:every=2,delay_us=50")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 4 {
		t.Fatalf("got %d specs, want 4", len(specs))
	}
	if specs[0].Site != probe.SiteFutexLostWake || specs[0].Prob != 0.25 {
		t.Errorf("spec 0 = %+v", specs[0])
	}
	if specs[1].Nth != 3 || specs[1].TaskPrefix != "kc.t2" {
		t.Errorf("spec 1 = %+v", specs[1])
	}
	if specs[2].Factor != 8 {
		t.Errorf("spec 2 = %+v", specs[2])
	}
	if specs[3].Every != 2 || specs[3].DelayUS != 50 {
		t.Errorf("spec 3 = %+v", specs[3])
	}
	// Round-trip through String.
	var parts []string
	for _, s := range specs {
		parts = append(parts, s.String())
	}
	again, err := ParseSpecs(strings.Join(parts, ";"))
	if err != nil {
		t.Fatalf("re-parse of %q: %v", strings.Join(parts, ";"), err)
	}
	for i := range specs {
		if specs[i] != again[i] {
			t.Errorf("round-trip spec %d: %+v != %+v", i, specs[i], again[i])
		}
	}
}

func TestParseSpecsErrors(t *testing.T) {
	for _, bad := range []string{
		"nosuchsite:prob=0.5",
		"open",                    // no firing rule
		"open:prob=2",             // prob out of range
		"open:prob=0.5,nth=2",     // two rules
		"open:frobnicate=1",       // unknown key
		"sched_delay:prob=0.5",    // missing delay_us
		"fs_slow:factor=0.5",      // factor < 1
		"open:nth=0",              // nth must be positive
		"futex_lost_wake:prob",    // not key=val
		"open:err=ebadf,prob=0.5", // unknown errno
		"open:prob=NaN",           // not a probability
		// Values whose picosecond result overflows the int64 clock.
		"fs_slow:factor=inf",
		"fs_slow:factor=+Inf",
		"fs_slow:factor=NaN",
		"fs_slow:factor=1e300",
		"fs_slow:factor=9223372036854775808",
		"sched_delay:every=1,delay_us=10000000000000",
		"sched_delay:every=1,delay_us=9223372036855",
	} {
		if _, err := ParseSpecs(bad); err == nil {
			t.Errorf("ParseSpecs(%q) succeeded, want error", bad)
		}
	}
	// Empty string is valid: no specs.
	specs, err := ParseSpecs("")
	if err != nil || len(specs) != 0 {
		t.Errorf("ParseSpecs(\"\") = %v, %v", specs, err)
	}
}

// TestSpecGrammarShared runs one table of spec lists through both
// parsers built on probe.ParseList: -faults and -probe must accept and
// reject the same lists, each error under its own prefix. NAME and OPT
// stand for each parser's valid name and option.
func TestSpecGrammarShared(t *testing.T) {
	cases := []struct {
		what, in string
		specs    int // -1: rejected
	}{
		{"empty", "", 0},
		{"empty parts", " ;;; ", 0},
		{"empty parts around a spec", ";;NAME:OPT;;", 1},
		{"stray whitespace", "  NAME : OPT ;\tNAME:\tOPT\t", 2},
		{"space inside an option", "NAME:OPT,task = a", -1},
		{"key without =", "NAME:OPT,task", -1},
		{"trailing ,", "NAME:OPT,", -1},
		{"trailing ;", "NAME:OPT;", 1},
		{"unknown key", "NAME:OPT,frobnicate=1", -1},
		{"unknown name", "nosuchname:OPT", -1},
		{"one valid spec", "NAME:OPT", 1},
	}
	parsers := []struct {
		prefix, name, opt string
		parse             func(string) (int, error)
	}{
		{"fault: ", "kc_kill", "nth=3", func(s string) (int, error) {
			specs, err := ParseSpecs(s)
			return len(specs), err
		}},
		{"probe: ", "slo", "p99_us=5", func(s string) (int, error) {
			specs, err := probe.ParseSpecs(s)
			return len(specs), err
		}},
	}
	for _, c := range cases {
		for _, p := range parsers {
			in := strings.NewReplacer("NAME", p.name, "OPT", p.opt).Replace(c.in)
			n, err := p.parse(in)
			switch {
			case c.specs >= 0 && (err != nil || n != c.specs):
				t.Errorf("%s: %s%q = %d specs, %v; want %d specs", c.what, p.prefix, in, n, err, c.specs)
			case c.specs < 0 && err == nil:
				t.Errorf("%s: %s%q accepted, want an error", c.what, p.prefix, in)
			case c.specs < 0 && !strings.HasPrefix(err.Error(), p.prefix):
				t.Errorf("%s: %q: error %q lacks the prefix %q", c.what, in, err, p.prefix)
			}
		}
	}
}

func TestNthAndEveryAndCount(t *testing.T) {
	p := NewPlane(1, []Spec{
		{Site: probe.SiteOpen, Nth: 3, Err: "enospc"},
		{Site: probe.SiteWrite, Every: 2, Count: 2, Err: "eagain"},
	})
	var openErrs, writeErrs []error
	for i := 0; i < 6; i++ {
		openErrs = append(openErrs, p.syscallError(nil, probe.SiteOpen))
		writeErrs = append(writeErrs, p.syscallError(nil, probe.SiteWrite))
	}
	for i, err := range openErrs {
		want := error(nil)
		if i == 2 { // third hit
			want = kernel.ErrNoSpace
		}
		if !errors.Is(err, want) || (want == nil && err != nil) {
			t.Errorf("open hit %d: err=%v want %v", i+1, err, want)
		}
	}
	// every=2, count=2: fires on hits 2 and 4 only.
	for i, err := range writeErrs {
		want := error(nil)
		if i == 1 || i == 3 {
			want = kernel.ErrTryAgain
		}
		if (want == nil) != (err == nil) || (want != nil && !errors.Is(err, want)) {
			t.Errorf("write hit %d: err=%v want %v", i+1, err, want)
		}
	}
	if p.Injections() != 3 {
		t.Errorf("Injections() = %d, want 3", p.Injections())
	}
}

func TestProbDeterminismAndIndependence(t *testing.T) {
	run := func(extra bool) []bool {
		specs := []Spec{{Site: probe.SiteFutexLostWake, Prob: 0.5}}
		if extra {
			// A second spec at a different site must not shift the first
			// spec's schedule: streams are per-spec.
			specs = append(specs, Spec{Site: probe.SiteOpen, Prob: 0.9})
		}
		p := NewPlane(42, specs)
		var fires []bool
		for i := 0; i < 64; i++ {
			if extra && i%3 == 0 {
				p.syscallError(nil, probe.SiteOpen)
			}
			fires = append(fires, p.boolSite(nil, probe.SiteFutexLostWake))
		}
		return fires
	}
	a, b := run(false), run(true)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("hit %d: schedule shifted by unrelated spec (%v vs %v)", i, a[i], b[i])
		}
	}
	// And the same seed reproduces exactly.
	c := run(false)
	for i := range a {
		if a[i] != c[i] {
			t.Fatalf("hit %d: same seed diverged", i)
		}
	}
	// A different seed gives a different schedule (overwhelmingly likely
	// over 64 draws at p=0.5).
	p2 := NewPlane(43, []Spec{{Site: probe.SiteFutexLostWake, Prob: 0.5}})
	diff := false
	for i := 0; i < 64; i++ {
		if p2.boolSite(nil, probe.SiteFutexLostWake) != a[i] {
			diff = true
		}
	}
	if !diff {
		t.Error("seeds 42 and 43 produced identical 64-draw schedules")
	}
}

func TestArmedConsumesNoRandomness(t *testing.T) {
	p := NewPlane(7, []Spec{{Site: probe.SiteFutexLostWake, Prob: 0.5}})
	q := NewPlane(7, []Spec{{Site: probe.SiteFutexLostWake, Prob: 0.5}})
	for i := 0; i < 32; i++ {
		// Interleave armed queries on p only; schedules must stay equal.
		p.isArmed(nil, probe.SiteFutexLostWake)
		p.isArmed(nil, probe.SiteKCKill)
		if p.boolSite(nil, probe.SiteFutexLostWake) != q.boolSite(nil, probe.SiteFutexLostWake) {
			t.Fatalf("hit %d: isArmed() perturbed the schedule", i)
		}
	}
	if !p.isArmed(nil, probe.SiteFutexLostWake) {
		t.Error("isArmed() = false for configured site")
	}
	if p.isArmed(nil, probe.SiteKCKill) {
		t.Error("isArmed() = true for unconfigured site")
	}
}

func TestIOScale(t *testing.T) {
	p := NewPlane(1, []Spec{{Site: probe.SiteFSSlow, Factor: 4}})
	if f := p.ioScale(nil, probe.SiteFSSlow); f != 4 {
		t.Errorf("IOScale = %v, want 4", f)
	}
	if f := p.ioScale(nil, probe.SiteSchedDelay); f != 1 {
		t.Errorf("IOScale(other site) = %v, want 1", f)
	}
}

// TestIODelay pins fs_slow as a Delay: the plane answers an I/O of
// Dur = cost with the time its factors add, so that cost plus Delay is
// the scaled cost; factors multiply, and a product past the clock
// saturates.
func TestIODelay(t *testing.T) {
	const cost = 1000 * sim.Picosecond
	for _, c := range []struct {
		name    string
		factors []float64
		want    sim.Duration // cost + Delay
	}{
		{"factor 4", []float64{4}, 4000},
		{"factors 3 and 2", []float64{3, 2}, 6000},
		{"no spec", nil, cost},
		{"product overflows", []float64{4e18, 4e18}, math.MaxInt64},
	} {
		var specs []Spec
		for _, f := range c.factors {
			specs = append(specs, Spec{Site: probe.SiteFSSlow, Factor: f})
		}
		r := probe.NewRegistry()
		NewPlane(1, specs).Attach(r)
		ctx := r.Begin(probe.PFaultSite, 0)
		ctx.SetSite(probe.SiteFSSlow)
		ctx.Dur = cost
		d := r.Fire(ctx).Delay
		got := sim.Duration(math.MaxInt64)
		if d < math.MaxInt64-cost {
			got = cost + d
		}
		if got != c.want {
			t.Errorf("%s: cost %v + Delay %v = %v, want %v", c.name, cost, d, got, c.want)
		}
	}
}

func TestExtraDelay(t *testing.T) {
	p := NewPlane(1, []Spec{{Site: probe.SiteSchedDelay, Every: 2, DelayUS: 50}})
	d1 := p.extraDelay(nil, probe.SiteSchedDelay)
	d2 := p.extraDelay(nil, probe.SiteSchedDelay)
	if d1 != 0 {
		t.Errorf("first hit delay = %v, want 0", d1)
	}
	if want := 50 * 1000 * 1000; int64(d2) != int64(want) { // 50us in ps
		t.Errorf("second hit delay = %v ps, want %d ps", int64(d2), want)
	}
}

// TestDelayAndFactorLimits pins the clock-overflow bounds: the largest
// delay_us that fits is accepted and yields its exact picosecond value,
// and specs built in code beyond the parser's limits saturate instead of
// wrapping negative.
func TestDelayAndFactorLimits(t *testing.T) {
	specs, err := ParseSpecs("sched_delay:every=1,delay_us=9223372036854;fs_slow:factor=9.2e18")
	if err != nil {
		t.Fatalf("largest representable delay and factor rejected: %v", err)
	}
	p := NewPlane(1, specs)
	if d := p.extraDelay(nil, probe.SiteSchedDelay); d != 9223372036854*sim.Microsecond {
		t.Errorf("delay = %d ps, want %d", d, 9223372036854*sim.Microsecond)
	}
	huge := NewPlane(1, []Spec{
		{Site: probe.SiteSchedDelay, Every: 1, DelayUS: math.MaxUint64},
		{Site: probe.SiteSchedDelay, Every: 1, DelayUS: maxDelayUS},
	})
	if d := huge.extraDelay(nil, probe.SiteSchedDelay); d != math.MaxInt64 {
		t.Errorf("overflowing delay sum = %d, want saturation at %d", d, int64(math.MaxInt64))
	}
}

// namedTask is a probe.Task with only a name, for task-scoped specs.
type namedTask string

func (n namedTask) Name() string { return string(n) }
func (n namedTask) PID() int     { return 1 }
func (n namedTask) TGID() int    { return 1 }
func (n namedTask) CoreID() int  { return -1 }

// FuzzParseSpecs checks two properties of every spec the parser
// accepts: it round-trips through String, and the plane built from it
// never yields a negative Delay (sched_delay or fs_slow) or a factor
// below 1.
func FuzzParseSpecs(f *testing.F) {
	for _, s := range []string{
		"fs_slow:factor=inf",
		"fs_slow:factor=1e300",
		"sched_delay:every=1,delay_us=10000000000000",
		"sched_delay:every=1,delay_us=9223372036854;sched_delay:nth=1,delay_us=9223372036854",
		"futex_lost_wake:prob=0.25;kc_kill:nth=3,task=kc.t2;fs_slow:factor=8;sched_delay:every=2,delay_us=50",
		"open:prob=0.5,err=enospc,count=3;fs_slow:factor=1e18,task=a;fs_slow:factor=1e18",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		specs, err := ParseSpecs(in)
		if err != nil {
			return
		}
		parts := make([]string, len(specs))
		for i, sp := range specs {
			parts[i] = sp.String()
		}
		again, err := ParseSpecs(strings.Join(parts, ";"))
		if err != nil {
			t.Fatalf("%q: re-parse of %q: %v", in, strings.Join(parts, ";"), err)
		}
		if len(again) != len(specs) {
			t.Fatalf("%q: round trip gave %d specs, want %d", in, len(again), len(specs))
		}
		for i := range specs {
			if specs[i] != again[i] {
				t.Fatalf("%q: spec %d round-tripped %+v -> %+v", in, i, specs[i], again[i])
			}
		}
		p := NewPlane(1, specs)
		for _, sp := range specs {
			task := namedTask(sp.TaskPrefix)
			for i := 0; i < 3; i++ {
				if d := p.extraDelay(task, sp.Site); d < 0 {
					t.Fatalf("%q: negative delay %d", in, d)
				}
				if f := p.ioScale(task, sp.Site); !(f >= 1) {
					t.Fatalf("%q: scale %v below 1", in, f)
				}
				if d := p.ioDelay(task, sim.Duration(i)*sim.Millisecond); d < 0 {
					t.Fatalf("%q: negative fs_slow delay %d", in, d)
				}
			}
		}
	})
}
