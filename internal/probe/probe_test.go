package probe

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/sim"
)

// fakeTask satisfies Task without dragging the kernel in.
type fakeTask struct {
	name string
	pid  int
}

func (f *fakeTask) Name() string { return f.name }
func (f *fakeTask) PID() int     { return f.pid }
func (f *fakeTask) TGID() int    { return f.pid }
func (f *fakeTask) CoreID() int  { return -1 }

func at(us uint64) sim.Time {
	return sim.Time(0).Add(sim.Duration(us) * sim.Microsecond)
}

func TestPointNameRoundTrip(t *testing.T) {
	for _, p := range Points() {
		name := p.String()
		if strings.HasPrefix(name, "point(") {
			t.Errorf("point %d has no name", p)
			continue
		}
		if got := PointByName(name); got != p {
			t.Errorf("PointByName(%q) = %v, want %v", name, got, p)
		}
	}
	if PointByName("nope") != pInvalid {
		t.Error("PointByName accepted an unknown name")
	}
	if PointByName("") != pInvalid {
		t.Error("PointByName accepted the empty name")
	}
	if len(Points()) != int(NumPoints)-1 {
		t.Errorf("Points() lists %d points, want %d", len(Points()), NumPoints-1)
	}
}

func TestAttachDetachAndAttached(t *testing.T) {
	var nilReg *Registry
	if nilReg.Attached(PSyscallEnter) {
		t.Error("nil registry claims attachment")
	}
	r := NewRegistry()
	if r.Attached(PSyscallEnter) {
		t.Error("empty registry claims attachment")
	}
	fired := 0
	pr := r.Attach("obs", func(*Ctx) Verdict { fired++; return Verdict{} },
		PSyscallEnter, PFutexWait)
	if !r.Attached(PSyscallEnter) || !r.Attached(PFutexWait) {
		t.Error("Attached false after Attach")
	}
	if r.Attached(PSyscallExit) {
		t.Error("Attached true on a point the program does not watch")
	}
	if got := pr.PointsAttached(); len(got) != 2 {
		t.Errorf("PointsAttached = %v", got)
	}
	if ps := r.Programs(); len(ps) != 1 || ps[0] != pr {
		t.Errorf("Programs = %v", ps)
	}
	r.Fire(r.Begin(PSyscallEnter, 0))
	if fired != 1 {
		t.Errorf("fired %d times, want 1", fired)
	}
	r.Detach(pr)
	if r.Attached(PSyscallEnter) || r.Attached(PFutexWait) {
		t.Error("Attached true after Detach")
	}
	if len(r.Programs()) != 0 {
		t.Error("Programs non-empty after Detach")
	}
	r.Detach(nil) // must not panic
}

// TestVerdictCombination pins the combining rules: first Err wins,
// Delays add (saturating), Drop ORs — and every program runs regardless
// of earlier verdicts (the stream-advancement invariant).
func TestVerdictCombination(t *testing.T) {
	r := NewRegistry()
	errA, errB := errors.New("a"), errors.New("b")
	ran := []string{}
	r.Attach("a", func(*Ctx) Verdict {
		ran = append(ran, "a")
		return Verdict{Err: errA, Delay: 3, Drop: false}
	}, PFaultSite)
	r.Attach("b", func(*Ctx) Verdict {
		ran = append(ran, "b")
		return Verdict{Err: errB, Delay: 4, Drop: true}
	}, PFaultSite)
	r.Attach("c", func(*Ctx) Verdict {
		ran = append(ran, "c")
		return Verdict{}
	}, PFaultSite)
	v := r.Fire(r.Begin(PFaultSite, 0))
	if v.Err != errA {
		t.Errorf("Err = %v, want first program's %v", v.Err, errA)
	}
	if v.Delay != 7 {
		t.Errorf("Delay = %d, want 3+4", v.Delay)
	}
	if !v.Drop {
		t.Error("Drop not ORed")
	}
	if len(ran) != 3 {
		t.Errorf("ran %v — every program must run despite earlier verdicts", ran)
	}

	// Delays that sum past the clock saturate instead of wrapping.
	sat := NewRegistry()
	for _, d := range []sim.Duration{math.MaxInt64 - 2, 5} {
		sat.Attach("d", func(*Ctx) Verdict { return Verdict{Delay: d} }, PFaultSite)
	}
	if v := sat.Fire(sat.Begin(PFaultSite, 0)); v.Delay != math.MaxInt64 {
		t.Errorf("saturating Delay = %d, want %d", v.Delay, int64(math.MaxInt64))
	}
}

// TestBeginClearsEarlierFire: a program never sees a field that an
// earlier fire at another point left in the pooled context. Every slot
// of the pool is leased with every field set, then leased again, nested
// as deep as the pool, at a point whose fire sets none.
func TestBeginClearsEarlierFire(t *testing.T) {
	r := NewRegistry()
	r.Attach("dirty", func(*Ctx) Verdict { return Verdict{} }, PFaultFired)
	var bad []string
	r.Attach("clean", func(c *Ctx) Verdict {
		if c.ID != 0 || c.Site != "" || c.Task != nil || c.Waiter != nil ||
			c.Addr != 0 || c.Val != 0 || c.Dur != 0 || c.Err != nil {
			bad = append(bad, fmt.Sprintf("%+v", *c))
		}
		return Verdict{}
	}, PSchedDispatch)
	task := &fakeTask{name: "t", pid: 1}
	leases := make([]*Ctx, fireDepth)
	for round := 0; round < 3; round++ {
		for i := range leases {
			c := r.Begin(PFaultFired, at(1))
			c.SetSite(SiteOpen)
			c.Task, c.Waiter = task, task
			c.Addr, c.Val, c.Dur, c.Err = 1, 2, 3, errors.New("injected")
			leases[i] = c
		}
		for _, c := range leases {
			r.Fire(c)
		}
		for i := range leases {
			leases[i] = r.Begin(PSchedDispatch, at(2))
		}
		for _, c := range leases {
			r.Fire(c)
		}
	}
	if len(bad) != 0 {
		t.Errorf("%d fires saw an earlier fire's fields, first: %s", len(bad), bad[0])
	}
}

// TestVerdictFitsRegisters pins Verdict at four words and four fields.
// Go passes a struct in registers only within those limits (ssa.CanSSA);
// every fire returns a Verdict through an indirect call, which measured
// about 17 ns at 40 B against about 2 ns at 32 B on a 2-vCPU Xeon. A
// fifth field or word must fail here, not add 15 ns to every fire.
func TestVerdictFitsRegisters(t *testing.T) {
	if size := unsafe.Sizeof(Verdict{}); size > 4*unsafe.Sizeof(uintptr(0)) {
		t.Errorf("Verdict is %d B, want at most four words", size)
	}
	if n := reflect.TypeOf(Verdict{}).NumField(); n > 4 {
		t.Errorf("Verdict has %d fields, want at most 4", n)
	}
}

// TestSiteNameRoundTrip pins the site table: every ID has a distinct
// name that SiteByName resolves back, the system-calls come first, and
// the unknown and empty names resolve to no site.
func TestSiteNameRoundTrip(t *testing.T) {
	seen := map[string]bool{}
	for id := SiteID(1); id < NumSites; id++ {
		name := id.String()
		if name == "" || strings.HasPrefix(name, "site(") || seen[name] {
			t.Errorf("site %d has no distinct name (%q)", id, name)
		}
		seen[name] = true
		if got := SiteByName(name); got != id {
			t.Errorf("SiteByName(%q) = %v, want %v", name, got, id)
		}
		c := Ctx{}
		c.SetSite(id)
		if c.ID != id || c.Site != name {
			t.Errorf("SetSite(%v) = (%v, %q)", id, c.ID, c.Site)
		}
		if want := id <= lastSyscall; id.Syscall() != want {
			t.Errorf("%v.Syscall() = %v, want %v", id, id.Syscall(), want)
		}
	}
	for _, name := range []string{"", "nope", "site(0)"} {
		if id := SiteByName(name); id != siteNone {
			t.Errorf("SiteByName(%q) = %v, want no site", name, id)
		}
	}
	if siteNone.Syscall() || NumSites.Syscall() {
		t.Error("an invalid ID claims to be a syscall")
	}
}

// TestBeginFireNesting pins the context pool: a program whose side
// effects reach another attach point leases a distinct context.
func TestBeginFireNesting(t *testing.T) {
	r := NewRegistry()
	var inner string
	r.Attach("outer", func(c *Ctx) Verdict {
		ci := r.Begin(PTaskBlock, c.Now)
		ci.Site = "nested"
		if ci == c {
			t.Error("nested Begin returned the outer context")
		}
		r.Fire(ci)
		if c.Site != "outer-site" {
			t.Errorf("outer context clobbered by nested fire: Site=%q", c.Site)
		}
		return Verdict{}
	}, PSyscallEnter)
	r.Attach("inner", func(c *Ctx) Verdict {
		inner = c.Site
		return Verdict{}
	}, PTaskBlock)
	c := r.Begin(PSyscallEnter, 0)
	c.Site = "outer-site"
	r.Fire(c)
	if inner != "nested" {
		t.Errorf("nested fire saw Site=%q", inner)
	}
}

// TestUnattachedFireCostsNothing pins the cost contract at the probe
// layer itself: with nothing attached, the guarded fire-site pattern
// allocates zero bytes, and even a leased Begin/Fire pair with an
// observe-only program allocates nothing.
func TestUnattachedFireCostsNothing(t *testing.T) {
	r := NewRegistry()
	if got := testing.AllocsPerRun(100, func() {
		if r.Attached(PSyscallEnter) {
			t.Fatal("nothing is attached")
		}
	}); got != 0 {
		t.Errorf("unattached check allocates %v/op, want 0", got)
	}
	r.Attach("obs", func(*Ctx) Verdict { return Verdict{} }, PSyscallEnter)
	if got := testing.AllocsPerRun(100, func() {
		c := r.Begin(PSyscallEnter, 0)
		c.SetSite(SiteWrite)
		r.Fire(c)
	}); got != 0 {
		t.Errorf("observe-only dispatch allocates %v/op, want 0", got)
	}
}

func TestParseSpecs(t *testing.T) {
	specs, err := ParseSpecs("throttle:task=t2.,interval_us=50,burst=4;slo:syscall=open,p99_us=800;count:points=futex:wait+futex:wake")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 3 {
		t.Fatalf("parsed %d specs, want 3", len(specs))
	}
	th := specs[0]
	if th.Name != "throttle" || th.Task != "t2." || th.IntervalUS != 50 || th.Burst != 4 {
		t.Errorf("throttle spec = %+v", th)
	}
	slo := specs[1]
	if slo.Name != "slo" || slo.Syscall != "open" || slo.P99US != 800 {
		t.Errorf("slo spec = %+v", slo)
	}
	cnt := specs[2]
	if cnt.Name != "count" || len(cnt.Points) != 2 || cnt.Points[0] != PFutexWait || cnt.Points[1] != PFutexWake {
		t.Errorf("count spec = %+v", cnt)
	}
	// Round trip: the rendered string parses back to the same specs.
	again, err := ParseSpecs(SpecsString(specs))
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if SpecsString(again) != SpecsString(specs) {
		t.Errorf("round trip %q != %q", SpecsString(again), SpecsString(specs))
	}
	if got, _ := ParseSpecs(""); got != nil {
		t.Errorf("empty spec parsed to %v", got)
	}
}

func TestParseSpecsRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"nope:interval_us=5",                   // unknown probe
		"throttle",                             // missing interval_us
		"throttle:interval_us=0",               // zero interval
		"throttle:interval_us=x",               // non-numeric
		"throttle:interval_us=5,zz=1",          // unknown option
		"slo:task=a",                           // missing p99_us
		"slo:p99_us=0",                         // zero bound
		"count:task=a",                         // missing points
		"count:points=bogus:point",             // unknown attach point
		"throttle:interval_us",                 // option without =
		"slo:syscall=opne,p99_us=5",            // unknown syscall
		"throttle:syscall=futex,interval_us=5", // a timer kind, no syscall
		"slo:syscall=kc_kill,p99_us=5",         // a fault site, no syscall
	} {
		if _, err := ParseSpecs(bad); err == nil {
			t.Errorf("ParseSpecs(%q) accepted garbage", bad)
		}
	}
}

// TestParseSpecsLimits pins the clock-overflow bounds: interval_us and
// p99_us whose picosecond value would wrap the int64 clock, and bursts
// past int64, are rejected; the largest values that fit are accepted,
// convert exactly and run.
func TestParseSpecsLimits(t *testing.T) {
	for _, bad := range []string{
		"throttle:interval_us=288230376151711744", // 0 ps: the first call divided by zero
		"throttle:interval_us=9223372036855",
		"throttle:interval_us=1,burst=9223372036854775808", // a negative burst
		"throttle:interval_us=1,burst=18446744073709551615",
		"slo:p99_us=9300000000000", // a negative bound
		"slo:p99_us=9223372036855",
	} {
		if _, err := ParseSpecs(bad); err == nil {
			t.Errorf("ParseSpecs(%q) accepted an overflowing value", bad)
		}
	}
	specs, err := ParseSpecs("throttle:interval_us=9223372036854,burst=9223372036854775807;slo:p99_us=9223372036854")
	if err != nil {
		t.Fatalf("largest representable values rejected: %v", err)
	}
	if d := sim.Duration(specs[1].P99US) * sim.Microsecond; d != 9223372036854*sim.Microsecond || d <= 0 {
		t.Errorf("p99 bound = %d ps, want %d", d, 9223372036854*sim.Microsecond)
	}
	r := NewRegistry()
	atts := AttachSpecs(r, specs)
	task := &fakeTask{name: "w0", pid: 3}
	for i, now := range []sim.Time{0, at(1), sim.Time(math.MaxInt64)} {
		c := r.Begin(PSyscallEnter, now)
		c.SetSite(SiteWrite)
		c.Task = task
		if v := r.Fire(c); v.Delay != 0 {
			t.Errorf("call %d delayed %v with a full bucket", i, v.Delay)
		}
		c = r.Begin(PSyscallExit, now)
		c.SetSite(SiteWrite)
		c.Task, c.Dur = task, sim.Millisecond
		r.Fire(c)
	}
	if err := atts[1].Check(); err != nil {
		t.Errorf("1ms latencies failed a 106-day SLO: %v", err)
	}
}

// TestThrottleTokenBucket pins the virtual-time token-bucket math:
// burst tokens up front, one token per interval after, delays that park
// consecutive over-budget calls on successive refill boundaries.
func TestThrottleTokenBucket(t *testing.T) {
	th := NewThrottle("w", "", 10*sim.Microsecond, 2)
	task := &fakeTask{name: "w0", pid: 3}
	fire := func(us uint64) sim.Duration {
		c := &Ctx{Point: PSyscallEnter, ID: SiteWrite, Now: at(us), Site: "write", Task: task}
		return th.Fire(c).Delay
	}
	// Burst: the first two calls at t=0 pass free.
	if d := fire(0); d != 0 {
		t.Errorf("call 1 delayed %v", d)
	}
	if d := fire(0); d != 0 {
		t.Errorf("call 2 delayed %v", d)
	}
	// Bucket empty: the next two calls at t=0 queue on successive refills.
	if d := fire(0); d != 10*sim.Microsecond {
		t.Errorf("call 3 delay = %v, want 10us", d)
	}
	if d := fire(0); d != 20*sim.Microsecond {
		t.Errorf("call 4 delay = %v, want 20us", d)
	}
	// Long idle: the bucket refills but never past burst.
	if d := fire(500); d != 0 {
		t.Errorf("post-idle call delayed %v", d)
	}
	if d := fire(500); d != 0 {
		t.Errorf("post-idle call 2 delayed %v (burst should hold 2)", d)
	}
	if d := fire(500); d == 0 {
		t.Error("post-idle call 3 passed; burst must cap the refill")
	}
	total, delayed := th.Stats()
	if total != 7 || delayed != 3 {
		t.Errorf("Stats = (%d, %d), want (7, 3)", total, delayed)
	}
	// Scoping: other tasks and other syscalls pass untouched.
	other := &fakeTask{name: "x0", pid: 4}
	c := &Ctx{Point: PSyscallEnter, ID: SiteWrite, Now: at(500), Site: "write", Task: other}
	if v := th.Fire(c); v.Delay != 0 {
		t.Errorf("non-matching task delayed %v", v.Delay)
	}
	scoped := NewThrottle("", "open", 10*sim.Microsecond, 1)
	c = &Ctx{Point: PSyscallEnter, ID: SiteWrite, Now: at(0), Site: "write", Task: task}
	scoped.Fire(c)
	if total, _ := scoped.Stats(); total != 0 {
		t.Errorf("syscall-scoped throttle matched %d non-open calls", total)
	}
}

func TestSLOCheck(t *testing.T) {
	slo := NewSLO("", "", 100*sim.Microsecond)
	r := NewRegistry()
	slo.prog = r.Attach("slo", slo.Fire, PSyscallExit)
	if err := slo.Check(); err != nil {
		t.Errorf("empty SLO check failed: %v", err)
	}
	task := &fakeTask{name: "w0", pid: 3}
	observe := func(site SiteID, d sim.Duration) {
		c := r.Begin(PSyscallExit, 0)
		c.SetSite(site)
		c.Task, c.Dur = task, d
		r.Fire(c)
	}
	for i := 0; i < 100; i++ {
		observe(SiteWrite, 10*sim.Microsecond)
	}
	if err := slo.Check(); err != nil {
		t.Errorf("in-bound p99 failed the check: %v", err)
	}
	for i := 0; i < 100; i++ {
		observe(SiteOpen, 5*sim.Millisecond)
	}
	err := slo.Check()
	if err == nil {
		t.Fatal("out-of-bound p99 passed the check")
	}
	if !strings.Contains(err.Error(), "open") || strings.Contains(err.Error(), "write") {
		t.Errorf("check error should name only the violating syscall: %v", err)
	}
	if s := slo.Summary(); !strings.Contains(s, "open") || !strings.Contains(s, "write") {
		t.Errorf("summary should cover every observed syscall: %s", s)
	}
}

// FuzzProbeParseSpecs checks every spec the parser accepts: it round
// trips through SpecsString, names only syscalls in syscall=, and its
// program, attached alone, runs on matching syscall fires gap
// microseconds apart without panicking, never returns a negative
// Delay, and — for a throttle whose burst covers every fire — delays
// nothing.
func FuzzProbeParseSpecs(f *testing.F) {
	f.Fuzz(func(t *testing.T, in string, gap uint64) {
		specs, err := ParseSpecs(in)
		if err != nil {
			return
		}
		again, err := ParseSpecs(SpecsString(specs))
		if err != nil {
			t.Fatalf("%q: re-parse of %q: %v", in, SpecsString(specs), err)
		}
		if !reflect.DeepEqual(again, specs) {
			t.Fatalf("%q: round trip gave %+v, want %+v", in, again, specs)
		}
		step := sim.Duration(gap%(maxUS/4)) * sim.Microsecond
		const fires = 4
		for _, sp := range specs {
			r := NewRegistry()
			att := AttachSpecs(r, []Spec{sp})[0]
			site := SiteWrite
			if sp.Syscall != "" {
				if site = SiteByName(sp.Syscall); !site.Syscall() {
					t.Fatalf("%q: accepted syscall=%q, which is no syscall", in, sp.Syscall)
				}
			}
			task := &fakeTask{name: sp.Task + "0", pid: 1}
			for i := 0; i < fires; i++ {
				now := sim.Time(0).Add(sim.Duration(i) * step)
				c := r.Begin(PSyscallEnter, now)
				c.SetSite(site)
				c.Task = task
				v := r.Fire(c)
				if v.Delay < 0 {
					t.Fatalf("%q: negative delay %d", sp, v.Delay)
				}
				if sp.Name == "throttle" && sp.Burst >= fires && v.Delay != 0 {
					t.Fatalf("%q: call %d delayed %v with burst %d", sp, i, v.Delay, sp.Burst)
				}
				c = r.Begin(PSyscallExit, now)
				c.SetSite(site)
				c.Task, c.Dur = task, step
				r.Fire(c)
			}
			if att.Check != nil {
				_ = att.Check() // a violated bound is a result, not a fault
			}
			if att.Report != nil {
				att.Report()
			}
		}
	})
}

// BenchmarkFireObserve is the per-fire cost of one observe-only program
// at a syscall point: Begin, SetSite and Fire, whose Verdict returns in
// registers.
func BenchmarkFireObserve(b *testing.B) {
	r := NewRegistry()
	r.Attach("obs", func(*Ctx) Verdict { return Verdict{} }, PSyscallEnter)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := r.Begin(PSyscallEnter, sim.Time(i))
		c.SetSite(SiteGetpid)
		r.Fire(c)
	}
}
