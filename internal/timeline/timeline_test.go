package timeline

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/blt"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/loader"
	"repro/internal/metrics"
	"repro/internal/sim"
)

func TestRecorderBasics(t *testing.T) {
	r := New()
	r.RecordSpan(0, "a", 1, 0, sim.Time(100*sim.Nanosecond))
	r.RecordSpan(1, "b", 2, sim.Time(50*sim.Nanosecond), sim.Time(150*sim.Nanosecond))
	start, end := r.Window()
	if start != 0 || end != sim.Time(150*sim.Nanosecond) {
		t.Errorf("window = [%v,%v]", start, end)
	}
	util := r.CoreUtilization()
	if util[0] < 0.6 || util[0] > 0.7 {
		t.Errorf("core0 util = %v, want ~0.667", util[0])
	}
	res := r.TaskResidency()
	if res["a"].Busy != 100*sim.Nanosecond || !res["a"].Cores[0] {
		t.Errorf("residency a = %+v", res["a"])
	}
	if len(r.Spans()) != 2 {
		t.Errorf("spans = %d", len(r.Spans()))
	}
}

func TestKernelSpansCoverTaskRuntime(t *testing.T) {
	e := sim.New()
	k := kernel.New(e, arch.Wallaby())
	rec := New()
	rec.Attach(k.Probes())
	task := k.NewTask("worker", k.NewAddressSpace(), func(task *kernel.Task) int {
		task.Compute(100 * sim.Microsecond)
		task.Nanosleep(50 * sim.Microsecond)
		task.Compute(30 * sim.Microsecond)
		return 0
	})
	task.SetAffinity(2)
	k.Start(task, 0)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// The task must appear on core 2 with roughly its busy time: two
	// compute bursts plus small syscall/exit costs, but NOT the sleep.
	res := rec.TaskResidency()
	got := res["worker"].Busy
	if got < 130*sim.Microsecond || got > 145*sim.Microsecond {
		t.Errorf("recorded busy = %v, want ~134us", got)
	}
	if !res["worker"].Cores[2] || len(res["worker"].Cores) != 1 {
		t.Errorf("cores = %v", res["worker"].Cores)
	}
	// Spans never overlap on a core.
	spans := rec.Spans()
	for i := 0; i < len(spans); i++ {
		for j := i + 1; j < len(spans); j++ {
			a, b := spans[i], spans[j]
			if a.Core == b.Core && a.Start < b.End && b.Start < a.End {
				t.Errorf("overlapping spans on core %d: %+v vs %+v", a.Core, a, b)
			}
		}
	}
}

func TestTimelineShowsFig6Partitioning(t *testing.T) {
	// Under the Fig. 6 deployment, scheduler tasks live on the program
	// cores and the ULP KCs appear on the syscall cores.
	e := sim.New()
	k := kernel.New(e, arch.Wallaby())
	rec := New()
	rec.Attach(k.Probes())
	prog := &loader.Image{
		Name: "w", PIE: true, TextSize: 4096,
		Symbols: []loader.Symbol{{Name: "x", Size: 8}},
		Main: func(envI interface{}) int {
			env := envI.(*core.Env)
			env.Decouple()
			for i := 0; i < 3; i++ {
				env.Getpid()
				env.Compute(5 * sim.Microsecond)
				env.Yield()
			}
			env.Couple()
			return 0
		},
	}
	core.Boot(k, core.Config{
		ProgCores:    []int{0, 1},
		SyscallCores: []int{2, 3},
		Idle:         blt.Blocking,
	}, func(rt *core.Runtime) int {
		for i := 0; i < 4; i++ {
			rt.Spawn(prog, core.SpawnOpts{Scheduler: -1})
		}
		rt.WaitAll()
		rt.Shutdown()
		return 0
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	res := rec.TaskResidency()
	for name, r := range res {
		if strings.HasPrefix(name, "sched.") {
			for c := range r.Cores {
				if c > 1 {
					t.Errorf("scheduler %s ran on syscall core %d", name, c)
				}
			}
		}
		if strings.HasPrefix(name, "kc.") {
			for c := range r.Cores {
				if c < 2 {
					t.Errorf("original KC %s ran on program core %d", name, c)
				}
			}
		}
	}
	var buf bytes.Buffer
	rec.Report(&buf)
	if !strings.Contains(buf.String(), "core 0") {
		t.Errorf("report missing cores:\n%s", buf.String())
	}
	buf.Reset()
	rec.Gantt(&buf, 60)
	out := buf.String()
	if !strings.Contains(out, "core 0") || !strings.Contains(out, "│") {
		t.Errorf("gantt malformed:\n%s", out)
	}
}

// TestSpansMatchMetricsUnderStealingAndPreemption pins the agreement
// between the two observability planes under the most migration-heavy
// configuration: work-stealing schedulers plus a preemption quantum
// shorter than the compute bursts. Per core, spans must never overlap
// and must sum exactly to the kernel.core.N.busy_ps gauge the metrics
// plane publishes — both derive from the same Charge stream, so any
// divergence is double-counting in one of them.
func TestSpansMatchMetricsUnderStealingAndPreemption(t *testing.T) {
	e := sim.New()
	k := kernel.New(e, arch.Wallaby())
	rec := New()
	rec.Attach(k.Probes())
	reg := metrics.NewRegistry()
	k.SetMetrics(reg)
	prog := &loader.Image{
		Name: "w", PIE: true, TextSize: 4096,
		Symbols: []loader.Symbol{{Name: "x", Size: 8}},
		Main: func(envI interface{}) int {
			env := envI.(*core.Env)
			env.Decouple()
			// Rank-skewed bursts, each several quanta long, so stealing
			// rebalances and preemption splits the bursts.
			for i := 0; i < 3; i++ {
				env.Compute(sim.Duration(20+10*env.Rank) * sim.Microsecond)
				env.Getpid()
				env.Yield()
			}
			env.Couple()
			return 0
		},
	}
	core.Boot(k, core.Config{
		ProgCores:      []int{0, 1},
		SyscallCores:   []int{2, 3},
		Idle:           blt.Blocking,
		WorkStealing:   true,
		PreemptQuantum: 5 * sim.Microsecond,
	}, func(rt *core.Runtime) int {
		// Pile every ULP onto scheduler 0: only stealing moves work.
		for i := 0; i < 6; i++ {
			if _, err := rt.Spawn(prog, core.SpawnOpts{Scheduler: 0}); err != nil {
				t.Error(err)
				return 1
			}
		}
		rt.WaitAll()
		rt.Shutdown()
		return 0
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	k.FinalizeMetrics()

	spans := rec.Spans()
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}
	perCore := map[int][]Span{}
	busy := map[int]sim.Duration{}
	for _, s := range spans {
		perCore[s.Core] = append(perCore[s.Core], s)
		busy[s.Core] += s.Dur()
	}
	for c, ss := range perCore {
		for i := 0; i < len(ss); i++ {
			for j := i + 1; j < len(ss); j++ {
				a, b := ss[i], ss[j]
				if a.Start < b.End && b.Start < a.End {
					t.Fatalf("overlapping spans on core %d: %+v vs %+v", c, a, b)
				}
			}
		}
		want := reg.Gauge(fmt.Sprintf("kernel.core.%d.busy_ps", c)).Value()
		if int64(busy[c]) != want {
			t.Errorf("core %d: span sum %d ps, metrics busy %d ps", c, int64(busy[c]), want)
		}
	}
}

func TestEmptyTimeline(t *testing.T) {
	r := New()
	var buf bytes.Buffer
	r.Gantt(&buf, 40)
	if !strings.Contains(buf.String(), "empty") {
		t.Error("empty gantt")
	}
	if u := r.CoreUtilization(); len(u) != 0 {
		t.Error("utilization of empty recorder")
	}
}

// TestReportOrdersEqualBusyTasksByName: tasks with equal busy time print
// in name order, after busier ones, on every render (the residency map
// alone would order them by map iteration).
func TestReportOrdersEqualBusyTasksByName(t *testing.T) {
	r := New()
	r.RecordSpan(0, "busiest", 1, 0, sim.Time(200*sim.Nanosecond))
	for i, n := range []int{5, 2, 7, 0, 3, 6, 1, 4} {
		start := sim.Time(i) * sim.Time(100*sim.Nanosecond)
		r.RecordSpan(1+i%2, fmt.Sprintf("w.%d", n), 2+n, start, start.Add(50*sim.Nanosecond))
	}
	want := []string{"busiest", "w.0", "w.1", "w.2", "w.3", "w.4", "w.5", "w.6", "w.7"}
	for render := 0; render < 20; render++ {
		var buf bytes.Buffer
		r.Report(&buf)
		var got []string
		for _, line := range strings.Split(buf.String(), "\n") {
			if f := strings.Fields(line); len(f) > 1 && f[0] == "task" {
				got = append(got, f[1])
			}
		}
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Fatalf("render %d: task lines %v, want %v", render, got, want)
		}
	}
}
