package bench

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/blt"
	"repro/internal/sim"
)

func init() {
	// The simulation is deterministic; one run per measurement keeps
	// the test suite fast without changing any result.
	Runs = 1
}

// within asserts v is within tol (fractional) of want.
func within(t *testing.T, name string, v, want, tol float64) {
	t.Helper()
	if v < want*(1-tol) || v > want*(1+tol) {
		t.Errorf("%s = %v, want %v ± %.0f%%", name, v, want, tol*100)
	}
}

func TestTable3MatchesPaper(t *testing.T) {
	r, err := Table3(arch.Wallaby())
	if err != nil {
		t.Fatal(err)
	}
	within(t, "Wallaby ctxsw ns", r.CtxSwitch.Time.Nanoseconds(), 33.4, 0.03)
	within(t, "Wallaby TLS ns", r.LoadTLS.Time.Nanoseconds(), 109, 0.03)
	within(t, "Wallaby ctxsw cycles", r.CtxSwitch.Cycles, 86, 0.05)
	if !r.CtxSwitch.HasCyc {
		t.Error("Wallaby must report cycles")
	}

	r, err = Table3(arch.Albireo())
	if err != nil {
		t.Fatal(err)
	}
	within(t, "Albireo ctxsw ns", r.CtxSwitch.Time.Nanoseconds(), 24.5, 0.03)
	within(t, "Albireo TLS ns", r.LoadTLS.Time.Nanoseconds(), 2.5, 0.03)
	if r.LoadTLS.HasCyc {
		t.Error("Albireo must not report cycles (no RDTSC)")
	}
}

func TestTable4MatchesPaper(t *testing.T) {
	// Paper Table IV: Wallaby 150/266/77.9 ns, Albireo 120/1220/348 ns.
	r, err := Table4(arch.Wallaby())
	if err != nil {
		t.Fatal(err)
	}
	within(t, "Wallaby ULP yield", r.ULPYield.Time.Nanoseconds(), 150, 0.07)
	within(t, "Wallaby yield 1core", r.SchedYield1Core.Time.Nanoseconds(), 266, 0.07)
	within(t, "Wallaby yield 2core", r.SchedYield2Core.Time.Nanoseconds(), 77.9, 0.07)
	// The paper's observation: on Wallaby sched_yield on 2 cores beats
	// the ULP yield (slow x86 TLS load).
	if r.SchedYield2Core.Time >= r.ULPYield.Time {
		t.Error("Wallaby: 2-core sched_yield should beat ULP yield")
	}

	r, err = Table4(arch.Albireo())
	if err != nil {
		t.Fatal(err)
	}
	within(t, "Albireo ULP yield", r.ULPYield.Time.Nanoseconds(), 120, 0.07)
	within(t, "Albireo yield 1core", r.SchedYield1Core.Time.Nanoseconds(), 1220, 0.07)
	within(t, "Albireo yield 2core", r.SchedYield2Core.Time.Nanoseconds(), 348, 0.07)
	// On Albireo the ULP yield beats both kernel variants.
	if r.ULPYield.Time >= r.SchedYield2Core.Time {
		t.Error("Albireo: ULP yield should beat even 2-core sched_yield")
	}
}

func TestTable5MatchesPaper(t *testing.T) {
	// Paper Table V: Wallaby 67.1/1330/2910 ns, Albireo 385/2710/4480.
	r, err := Table5(arch.Wallaby())
	if err != nil {
		t.Fatal(err)
	}
	within(t, "Wallaby linux", r.Linux.Time.Nanoseconds(), 67.1, 0.05)
	within(t, "Wallaby busywait", r.BusyWait.Time.Nanoseconds(), 1330, 0.10)
	within(t, "Wallaby blocking", r.Blocking.Time.Nanoseconds(), 2910, 0.10)

	r, err = Table5(arch.Albireo())
	if err != nil {
		t.Fatal(err)
	}
	within(t, "Albireo linux", r.Linux.Time.Nanoseconds(), 385, 0.05)
	within(t, "Albireo busywait", r.BusyWait.Time.Nanoseconds(), 2710, 0.10)
	within(t, "Albireo blocking", r.Blocking.Time.Nanoseconds(), 4480, 0.10)
	if !(r.Linux.Time < r.BusyWait.Time && r.BusyWait.Time < r.Blocking.Time) {
		t.Error("Table V ordering violated")
	}
}

func TestFig7WallabyULPWinsEverywhere(t *testing.T) {
	// Paper: "On Wallaby, ULP-PiP outperforms the AIO in all cases."
	m := arch.Wallaby()
	for _, size := range []int{64, 4096, 262144} {
		base, err := owcBaseline(m, size)
		if err != nil {
			t.Fatal(err)
		}
		ulpB, _ := owcULP(m, size, blt.BusyWait)
		ulpK, _ := owcULP(m, size, blt.Blocking)
		aioR, _ := owcAIO(m, size, 0, false, 4, 16)
		aioS, _ := owcAIO(m, size, 0, true, 4, 16)
		if ulpB >= aioR {
			t.Errorf("size %d: ULP-busywait (%v) >= AIO-return (%v)", size, ulpB, aioR)
		}
		if ulpK >= aioS {
			t.Errorf("size %d: ULP-blocking (%v) >= AIO-suspend (%v)", size, ulpK, aioS)
		}
		if base >= ulpB {
			t.Errorf("size %d: baseline (%v) not fastest", size, base)
		}
	}
}

func TestFig7AlbireoCrossover(t *testing.T) {
	// Paper: "On Albireo ... ULP-PiP's busy-waiting outperforms AIO
	// slightly if the buffer sizes are less than 32 KiB" — and loses
	// above it.
	m := arch.Albireo()
	small, large := 1024, 1<<20
	ulpSmall, err := owcULP(m, small, blt.BusyWait)
	if err != nil {
		t.Fatal(err)
	}
	aioSmall, _ := owcAIO(m, small, 0, false, 4, 16)
	ulpLarge, _ := owcULP(m, large, blt.BusyWait)
	aioLarge, _ := owcAIO(m, large, 0, false, 4, 16)
	if ulpSmall >= aioSmall {
		t.Errorf("small size: ULP (%v) should beat AIO (%v)", ulpSmall, aioSmall)
	}
	if ulpLarge <= aioLarge {
		t.Errorf("large size: AIO (%v) should beat ULP (%v)", aioLarge, ulpLarge)
	}
}

func TestFig7SlowdownDecreasesWithSize(t *testing.T) {
	m := arch.Wallaby()
	var prev float64
	for i, size := range []int{64, 4096, 262144} {
		base, err := owcBaseline(m, size)
		if err != nil {
			t.Fatal(err)
		}
		d, err := owcULP(m, size, blt.BusyWait)
		if err != nil {
			t.Fatal(err)
		}
		slow := float64(d) / float64(base)
		if i > 0 && slow >= prev {
			t.Errorf("slowdown not decreasing: %v at %d after %v", slow, size, prev)
		}
		prev = slow
	}
}

func TestFig8PaperClaims(t *testing.T) {
	// Paper: ULP overlap >70% on Wallaby, >80% on Albireo; all AIO
	// cases <70%.
	check := func(m *arch.Machine, ulpFloor float64) {
		for _, size := range []int{64, 4096, 32768} {
			tPure, err := owcBaseline(m, size)
			if err != nil {
				t.Fatal(err)
			}
			tCPU := tPure
			for _, idle := range []blt.IdlePolicy{blt.BusyWait, blt.Blocking} {
				d, err := overlapULP(m, size, tCPU, idle)
				if err != nil {
					t.Fatal(err)
				}
				ov := IMBOverlap(tPure, tCPU, d)
				if ov < ulpFloor {
					t.Errorf("%s size %d %v: ULP overlap %.1f%% < %.0f%%", m.Name, size, idle, ov, ulpFloor)
				}
			}
			for _, suspend := range []bool{false, true} {
				d, err := owcAIO(m, size, tCPU, suspend, 2, 8)
				if err != nil {
					t.Fatal(err)
				}
				ov := IMBOverlap(tPure, tCPU, d)
				if ov >= 70 {
					t.Errorf("%s size %d AIO(suspend=%v): overlap %.1f%% >= 70%%", m.Name, size, suspend, ov)
				}
			}
		}
	}
	check(arch.Wallaby(), 70)
	check(arch.Albireo(), 80)
}

func TestIMBOverlapFormula(t *testing.T) {
	// Perfect overlap: t_ovrl == max(t_pure, t_cpu) == both equal.
	if got := IMBOverlap(100, 100, 100); got != 100 {
		t.Errorf("perfect overlap = %v, want 100", got)
	}
	// No overlap: fully serialized.
	if got := IMBOverlap(100, 100, 200); got != 0 {
		t.Errorf("no overlap = %v, want 0", got)
	}
	// Half overlap.
	if got := IMBOverlap(100, 100, 150); got != 50 {
		t.Errorf("half overlap = %v, want 50", got)
	}
	// Clamping.
	if got := IMBOverlap(100, 100, 300); got != 0 {
		t.Errorf("over-serialized = %v, want 0 (clamped)", got)
	}
	if got := IMBOverlap(100, 100, 50); got != 100 {
		t.Errorf("impossible = %v, want 100 (clamped)", got)
	}
	if got := IMBOverlap(0, 0, 0); got != 0 {
		t.Errorf("degenerate = %v, want 0", got)
	}
}

func TestIdleAblationTradeoff(t *testing.T) {
	r, err := AblateIdlePolicy(arch.Wallaby())
	if err != nil {
		t.Fatal(err)
	}
	if len(r) != 2 {
		t.Fatalf("results = %d", len(r))
	}
	busy, blocking := r[0], r[1]
	if busy.GetpidLatency >= blocking.GetpidLatency {
		t.Error("busy-wait should have lower latency")
	}
	if busy.SpunKC == 0 && busy.SpunScheds == 0 {
		t.Error("busy-wait should burn idle cycles")
	}
	if blocking.SpunKC != 0 {
		t.Error("blocking should burn no KC idle cycles")
	}
}

func TestTLSAblationShares(t *testing.T) {
	w, err := AblateTLS(arch.Wallaby())
	if err != nil {
		t.Fatal(err)
	}
	a, err := AblateTLS(arch.Albireo())
	if err != nil {
		t.Fatal(err)
	}
	// x86: TLS dominates the yield; ARM: negligible (§VIII).
	wShare := 1 - float64(w.NoTLS)/float64(w.WithTLS)
	aShare := 1 - float64(a.NoTLS)/float64(a.WithTLS)
	if wShare < 0.5 {
		t.Errorf("Wallaby TLS share = %.2f, want > 0.5", wShare)
	}
	if aShare > 0.1 {
		t.Errorf("Albireo TLS share = %.2f, want < 0.1", aShare)
	}
}

func TestFig6ScenarioShapes(t *testing.T) {
	pts, err := Fig6Scenario(arch.Wallaby(), []int{1, 2}, []int{0, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("points = %d", len(pts))
	}
	byKey := map[[2]int]Fig6Point{}
	for _, p := range pts {
		byKey[[2]int{p.SyscallCores, p.Oversub}] = p
		if p.Throughput <= 0 {
			t.Errorf("nonpositive throughput: %+v", p)
		}
	}
	// Over-subscription hides syscall latency: more ops/ms at O=3.
	if byKey[[2]int{2, 3}].Throughput <= byKey[[2]int{2, 0}].Throughput {
		t.Error("oversubscription did not improve throughput")
	}
}

func TestPrintersProduceTables(t *testing.T) {
	r3, err := MachineResults(Table3)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	PrintTable3(&buf, r3)
	out := buf.String()
	for _, want := range []string{"TABLE III", "Wallaby", "Albireo", "Context Sw.", "Load TLS", "3.34E-08"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table III output missing %q:\n%s", want, out)
		}
	}
}

func TestWriteSeriesCSV(t *testing.T) {
	series := []Series{
		{Label: "a", Points: []Point{{64, 1.5}, {128, 1.2}}},
		{Label: "b", Points: []Point{{64, 2.0}, {128, 1.8}}},
	}
	var buf bytes.Buffer
	if err := WriteSeriesCSV(&buf, series); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 || lines[0] != "x,a,b" {
		t.Errorf("csv = %q", buf.String())
	}
	if !strings.HasPrefix(lines[1], "64,1.5") {
		t.Errorf("row = %q", lines[1])
	}
}

func TestMinOfTakesMinimum(t *testing.T) {
	old := Runs
	Runs = 3
	defer func() { Runs = old }()
	vals := []sim.Duration{30, 10, 20}
	i := 0
	d, err := MinOf(func() (sim.Duration, error) {
		v := vals[i]
		i++
		return v, nil
	})
	if err != nil || d != 10 {
		t.Errorf("MinOf = %v, %v", d, err)
	}
}

func TestAllPrintersRender(t *testing.T) {
	var buf bytes.Buffer

	r4, err := MachineResults(Table4)
	if err != nil {
		t.Fatal(err)
	}
	PrintTable4(&buf, r4)
	if !strings.Contains(buf.String(), "ULP-PiP yield") {
		t.Error("Table IV printer")
	}

	buf.Reset()
	r5, err := MachineResults(Table5)
	if err != nil {
		t.Fatal(err)
	}
	PrintTable5(&buf, r5)
	if !strings.Contains(buf.String(), "BUSYWAIT") {
		t.Error("Table V printer")
	}

	buf.Reset()
	f7 := Fig7Result{
		Machine:  arch.Wallaby(),
		Sizes:    []int{64, 128},
		Baseline: []sim.Duration{100, 200},
		Times: map[string][]sim.Duration{
			"ULP-BUSYWAIT": {150, 250}, "ULP-BLOCKING": {160, 260},
			"AIO-return": {170, 270}, "AIO-suspend": {180, 280},
		},
	}
	PrintFig7(&buf, f7)
	if !strings.Contains(buf.String(), "FIGURE 7") {
		t.Error("Fig 7 printer")
	}
	if got := f7.Slowdown("ULP-BUSYWAIT"); got[0] != 1.5 || got[1] != 1.25 {
		t.Errorf("Slowdown = %v", got)
	}
	if s := f7.Series(); len(s) != 4 || s[0].Points[0].Y != 1.5 {
		t.Errorf("Series = %+v", s)
	}

	buf.Reset()
	f8 := Fig8Result{
		Machine: arch.Albireo(),
		Sizes:   []int{64},
		Overlap: map[string][]float64{
			"ULP-BUSYWAIT": {80}, "ULP-BLOCKING": {85},
			"AIO-return": {10}, "AIO-suspend": {12},
		},
	}
	PrintFig8(&buf, f8)
	if !strings.Contains(buf.String(), "FIGURE 8") {
		t.Error("Fig 8 printer")
	}
	if s := f8.Series(); len(s) != 4 || s[1].Points[0].Y != 85 {
		t.Errorf("Fig8 Series = %+v", s)
	}

	buf.Reset()
	pts, err := MPIOversubscription(arch.Wallaby(), []int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	PrintMPI(&buf, pts)
	if !strings.Contains(buf.String(), "OVERSUBSCRIPTION") {
		t.Error("MPI printer")
	}
	if pts[1].Efficiency < 0.9 {
		t.Errorf("efficiency at 2x = %v", pts[1].Efficiency)
	}

	buf.Reset()
	hp, err := HugePages(arch.Wallaby())
	if err != nil {
		t.Fatal(err)
	}
	PrintHugePages(&buf, hp)
	if !strings.Contains(buf.String(), "PAGE FAULTS") {
		t.Error("huge-page printer")
	}
	if hp[1].Faults*100 > hp[0].Faults {
		t.Errorf("huge faults %d vs base %d", hp[1].Faults, hp[0].Faults)
	}
	// Populated: faults equal to demand, but touch time far smaller.
	if hp[2].Faults != hp[0].Faults {
		t.Errorf("populated faults %d != demand %d", hp[2].Faults, hp[0].Faults)
	}
	if hp[2].TouchTime*10 > hp[0].TouchTime {
		t.Errorf("populated touch %v not ≪ demand %v", hp[2].TouchTime, hp[0].TouchTime)
	}

	buf.Reset()
	ia, err := AblateIdlePolicy(arch.Albireo())
	if err != nil {
		t.Fatal(err)
	}
	PrintIdleAblation(&buf, ia)
	tl, err := MachineResults(AblateTLS)
	if err != nil {
		t.Fatal(err)
	}
	PrintTLSAblation(&buf, tl)
	f6, err := Fig6Scenario(arch.Wallaby(), []int{1}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	PrintFig6(&buf, f6)
	if !strings.Contains(buf.String(), "DEPLOYMENT SWEEP") {
		t.Error("Fig 6 printer")
	}
}

func TestAsciiChart(t *testing.T) {
	series := []Series{
		{Label: "up", Points: []Point{{1, 0}, {2, 5}, {3, 10}}},
		{Label: "down", Points: []Point{{1, 10}, {2, 5}, {3, 0}}},
	}
	out := AsciiChart(series, 30, 8)
	if !strings.Contains(out, "*") || !strings.Contains(out, "o") {
		t.Errorf("chart missing glyphs:\n%s", out)
	}
	if !strings.Contains(out, "up") || !strings.Contains(out, "down") {
		t.Errorf("chart missing legend:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 8+3 {
		t.Errorf("chart has %d lines, want 11", len(lines))
	}
	if AsciiChart(nil, 10, 5) != "(no data)\n" {
		t.Error("empty chart")
	}
	// Flat data must not divide by zero.
	flat := []Series{{Label: "f", Points: []Point{{1, 2}, {2, 2}}}}
	if out := AsciiChart(flat, 10, 4); out == "" {
		t.Error("flat chart empty")
	}
}

func TestWriteSeriesMarkdown(t *testing.T) {
	var buf bytes.Buffer
	writeSeriesMarkdown(&buf, "x", []Series{
		{Label: "a", Points: []Point{{64, 1.5}}},
		{Label: "b", Points: []Point{{64, 2.25}}},
	})
	out := buf.String()
	for _, want := range []string{"| x | a | b |", "| 64 | 1.500 | 2.250 |"} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q:\n%s", want, out)
		}
	}
}

// TestReportCoversEveryExperiment: the report has one "## <name>"
// section per Experiments entry, in order, each fencing that
// experiment's -exp text, and the fig7 and fig8 sections draw one chart
// per machine. The report used to format six experiments by hand and
// left out ablate-idle, fig6-scenario, huge-pages and mpi-oversub.
func TestReportCoversEveryExperiment(t *testing.T) {
	var b bytes.Buffer
	if err := Report(&b); err != nil {
		t.Fatal(err)
	}
	var names []string
	sections := map[string]string{}
	for _, sec := range strings.Split(b.String(), "\n## ")[1:] {
		name, body, _ := strings.Cut(sec, "\n")
		names = append(names, name)
		sections[name] = body
	}
	var want []string
	for _, x := range Experiments {
		want = append(want, x.Name)
		var text bytes.Buffer
		if _, err := x.Run(&text, nil); err != nil {
			t.Fatal(err)
		}
		fenced := "```\n" + strings.TrimRight(text.String(), "\n") + "\n```\n"
		if !strings.Contains(sections[x.Name], fenced) {
			t.Errorf("section %s does not fence the -exp %s text", x.Name, x.Name)
		}
	}
	if !slices.Equal(names, want) {
		t.Errorf("report sections %v, want %v", names, want)
	}
	for _, fig := range []string{"fig7", "fig8"} {
		if n := strings.Count(sections[fig], "┤─"); n != len(MachineOrder) {
			t.Errorf("section %s draws %d charts, want %d", fig, n, len(MachineOrder))
		}
		for _, m := range MachineOrder {
			if _, chart, ok := strings.Cut(sections[fig], "### "+m+"\n"); !ok || !strings.Contains(chart, "┤─") {
				t.Errorf("section %s has no chart under %q", fig, "### "+m)
			}
		}
	}
}
