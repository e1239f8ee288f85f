package schedpolicy

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/blt"
	"repro/internal/core"
	"repro/internal/fs"
	"repro/internal/kernel"
	"repro/internal/loader"
	"repro/internal/sim"
)

func TestNewSpecs(t *testing.T) {
	good := map[string]string{
		"fifo":                             "fifo",
		"locality":                         "locality",
		"cosched":                          "cosched",
		"tenant":                           "tenant",
		"tenant:weights=kc.w.0:4":          "tenant",
		"tenant:weights=kc.w.0:4+kc.w.1:2": "tenant",
		"tenant:weights=kc.w.0:1048576":    "tenant",
	}
	for spec, name := range good {
		p, err := New(spec)
		if err != nil {
			t.Errorf("New(%q): %v", spec, err)
			continue
		}
		if p.Name() != name {
			t.Errorf("New(%q).Name() = %q, want %q", spec, p.Name(), name)
		}
	}
	bad := []string{
		"", "rr", "fifo:x", "locality:near", "cosched:2",
		"tenant:4", "tenant:weights=", "tenant:weights=kc.w.0",
		"tenant:weights=kc.w.0:0", "tenant:weights=kc.w.0:x",
		"tenant:weights=:4", "tenant:weights=kc.w.0:2000000",
	}
	for _, spec := range bad {
		if p, err := New(spec); err == nil || p != nil {
			t.Errorf("New(%q) = %v, %v; want a nil Policy and an error", spec, p, err)
		}
	}
	// Fresh instance per call: stateful policies must not share state.
	a, _ := New("tenant")
	b, _ := New("tenant")
	if a == b {
		t.Error("New returned a shared instance")
	}
}

// FuzzNew: New never panics; a spec it rejects yields a nil Policy, and
// a policy it accepts reports the name the spec selected.
func FuzzNew(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := New(spec)
		if err != nil {
			if p != nil {
				t.Fatalf("New(%q) returned %v with error %v", spec, p, err)
			}
			return
		}
		if name, _, _ := strings.Cut(spec, ":"); p.Name() != name {
			t.Fatalf("New(%q).Name() = %q, want %q", spec, p.Name(), name)
		}
	})
}

func ulpImage(name string, main loader.MainFunc) *loader.Image {
	return &loader.Image{
		Name: name, PIE: true, TextSize: 4096,
		Symbols: []loader.Symbol{
			{Name: "data", Size: 64},
			{Name: "errno", Size: 8, TLS: true},
		},
		Main: main,
	}
}

// fingerprint is everything a run exposes that a scheduling decision
// could perturb: virtual end time, syscall and context-switch totals,
// and the per-scheduler dispatch/steal counters.
type fingerprint struct {
	end         sim.Time
	syscalls    uint64
	ctxSwitches uint64
	sched       []string
}

// runWorkload boots a 2+2-core deployment, runs 6 ULPs of a
// compute/syscall/yield mix under the policy spec selects (none when
// empty) and returns the run's fingerprint.
func runWorkload(t *testing.T, m *arch.Machine, idle blt.IdlePolicy, spec string) fingerprint {
	t.Helper()
	e := sim.New()
	k := kernel.New(e, m)
	install(t, k, spec)
	cfg := core.Config{
		ProgCores:    []int{0, 1},
		SyscallCores: []int{2, 3},
		Idle:         idle,
		WorkStealing: true,
	}
	var fp fingerprint
	worker := ulpImage("w", func(envI interface{}) int {
		env := envI.(*core.Env)
		buf := make([]byte, 512)
		env.Decouple()
		for i := 0; i < 4; i++ {
			env.Compute(3 * sim.Microsecond)
			env.Exec(func(kc *kernel.Task) {
				fd, err := kc.Open(fmt.Sprintf("/f%d", env.U.Rank), fs.OCreate|fs.OWrOnly|fs.OTrunc)
				if err != nil {
					panic(err)
				}
				kc.Write(fd, buf, true)
				kc.Close(fd)
			})
			env.Yield()
		}
		env.Couple()
		return 0
	})
	if _, err := core.Boot(k, cfg, func(rt *core.Runtime) int {
		for i := 0; i < 6; i++ {
			if _, err := rt.Spawn(worker, core.SpawnOpts{Scheduler: -1}); err != nil {
				panic(err)
			}
		}
		rt.WaitAll()
		for _, s := range rt.Pool().Schedulers() {
			fp.sched = append(fp.sched, fmt.Sprintf("c%d:%d/%d", s.Core(), s.Dispatches(), s.Steals()))
		}
		rt.Shutdown()
		return 0
	}); err != nil {
		t.Fatalf("boot: %v", err)
	}
	if err := e.Run(); err != nil {
		t.Fatalf("engine: %v", err)
	}
	fp.end = e.Now()
	fp.syscalls = k.Syscalls()
	fp.ctxSwitches = k.ContextSwitches()
	return fp
}

// TestFIFOByteIdentity pins the tentpole equivalence: the fifo policy —
// every hook declining — must reproduce the exact run the policy-off
// path produces, on both machines under both idle policies.
func TestFIFOByteIdentity(t *testing.T) {
	for _, mk := range []func() *arch.Machine{arch.Wallaby, arch.Albireo} {
		for _, idle := range []blt.IdlePolicy{blt.BusyWait, blt.Blocking} {
			m := mk()
			name := fmt.Sprintf("%s/%s", m.Name, idle)
			t.Run(name, func(t *testing.T) {
				bare := runWorkload(t, mk(), idle, "")
				fifo := runWorkload(t, mk(), idle, "fifo")
				if bare.end != fifo.end || bare.syscalls != fifo.syscalls || bare.ctxSwitches != fifo.ctxSwitches {
					t.Errorf("fifo diverged from bare: end %v vs %v, syscalls %d vs %d, ctx %d vs %d",
						fifo.end, bare.end, fifo.syscalls, bare.syscalls, fifo.ctxSwitches, bare.ctxSwitches)
				}
				if fmt.Sprint(bare.sched) != fmt.Sprint(fifo.sched) {
					t.Errorf("fifo scheduler counters diverged: %v vs %v", fifo.sched, bare.sched)
				}
			})
		}
	}
}

// TestPoliciesDeterministic runs every stock policy twice (fresh
// instances) and requires identical fingerprints: policies must be pure
// functions of machine state plus their own per-run state.
func TestPoliciesDeterministic(t *testing.T) {
	for _, spec := range []string{"fifo", "locality", "cosched", "tenant", "tenant:weights=kc.w.1:4"} {
		t.Run(spec, func(t *testing.T) {
			run := func() fingerprint {
				return runWorkload(t, arch.Wallaby(), blt.BusyWait, spec)
			}
			a, b := run(), run()
			if fmt.Sprint(a) != fmt.Sprint(b) {
				t.Errorf("policy %s not deterministic: %+v vs %+v", spec, a, b)
			}
		})
	}
}

// TestLocalityReturnsToLastCore pins the kernel half of the locality
// policy: a waking unpinned task goes back to the (idle) core it last
// ran on, where the built-in placement would restart its scan at core 0.
func TestLocalityReturnsToLastCore(t *testing.T) {
	e := sim.New()
	k := kernel.New(e, arch.Wallaby())
	install(t, k, "locality")
	space := k.NewAddressSpace()
	// Two pinned spinners occupy cores 0 and 1 until 50us, so the
	// unpinned sleeper's first placement lands on core 2.
	for i := 0; i < 2; i++ {
		sp := k.NewTask(fmt.Sprintf("spin%d", i), space, func(task *kernel.Task) int {
			task.Charge(50 * sim.Microsecond)
			return 0
		})
		sp.SetAffinity(i)
		k.Start(sp, 0)
	}
	sleeper := k.NewTask("sleeper", space, func(task *kernel.Task) int {
		task.Charge(sim.Microsecond)
		task.Nanosleep(100 * sim.Microsecond) // wakes long after the spinners exit
		task.Charge(sim.Microsecond)
		return 0
	})
	k.Start(sleeper, 0)
	if err := e.Run(); err != nil {
		t.Fatalf("engine: %v", err)
	}
	// Built-in placement would wake the sleeper on (now idle) core 0;
	// locality must send it back to warm core 2.
	if sleeper.LastCore() != 2 {
		t.Errorf("sleeper woke on core %d, want its warm core 2", sleeper.LastCore())
	}
}

// spawnRecorder builds a yield-loop image whose every dispatch slot
// appends its tag to order.
func spawnRecorder(order *[]string, tag string, yields int) *loader.Image {
	return ulpImage("w", func(envI interface{}) int {
		env := envI.(*core.Env)
		for i := 0; i < yields; i++ {
			*order = append(*order, tag)
			env.Yield()
		}
		return 0
	})
}

// TestCoschedDrainsGangsBackToBack: two 2-member gangs (KC-sharing ULP
// pairs) on one scheduler; co-scheduling must dispatch each gang's
// members back-to-back (gang windows), while the budgeted window keeps
// rotating between gangs so neither starves.
func TestCoschedDrainsGangsBackToBack(t *testing.T) {
	e := sim.New()
	k := kernel.New(e, arch.Wallaby())
	install(t, k, "cosched")
	cfg := core.Config{
		ProgCores:    []int{0},
		SyscallCores: []int{1},
		Idle:         blt.BusyWait,
	}
	var order []string
	if _, err := core.Boot(k, cfg, func(rt *core.Runtime) int {
		const yields = 3
		a0, err := rt.Spawn(spawnRecorder(&order, "A", yields), core.SpawnOpts{Scheduler: 0, StartDecoupled: true})
		if err != nil {
			panic(err)
		}
		if _, err := rt.Spawn(spawnRecorder(&order, "A", yields), core.SpawnOpts{Scheduler: 0, StartDecoupled: true, ShareKCWith: a0}); err != nil {
			panic(err)
		}
		b0, err := rt.Spawn(spawnRecorder(&order, "B", yields), core.SpawnOpts{Scheduler: 0, StartDecoupled: true})
		if err != nil {
			panic(err)
		}
		if _, err := rt.Spawn(spawnRecorder(&order, "B", yields), core.SpawnOpts{Scheduler: 0, StartDecoupled: true, ShareKCWith: b0}); err != nil {
			panic(err)
		}
		rt.WaitAll()
		rt.Shutdown()
		return 0
	}); err != nil {
		t.Fatalf("boot: %v", err)
	}
	if err := e.Run(); err != nil {
		t.Fatalf("engine: %v", err)
	}
	if len(order) != 12 {
		t.Fatalf("recorded %d slots, want 12: %v", len(order), order)
	}
	// Gang windows: the schedule decomposes into pairs of same-gang
	// slots (both members back-to-back), where FIFO would alternate
	// A B A B. Both gangs keep getting windows (no starvation).
	sawA, sawB := false, false
	for i := 0; i+1 < len(order); i += 2 {
		if order[i] != order[i+1] {
			t.Fatalf("slot %d: gang window split (%s then %s): %v", i, order[i], order[i+1], order)
		}
		sawA = sawA || order[i] == "A"
		sawB = sawB || order[i] == "B"
	}
	if !sawA || !sawB {
		t.Errorf("a gang starved (sawA=%v sawB=%v): %v", sawA, sawB, order)
	}
}

// TestTenantWeightsShiftShare: two single-ULP tenants on one scheduler;
// weighting the *later-spawned* tenant must make it overtake the earlier
// one (under FIFO, spawn order wins every tie, so rank 0's slots would
// always lead).
func TestTenantWeightsShiftShare(t *testing.T) {
	run := func(spec string) []string {
		e := sim.New()
		k := kernel.New(e, arch.Wallaby())
		install(t, k, spec)
		cfg := core.Config{
			ProgCores:    []int{0},
			SyscallCores: []int{1},
			Idle:         blt.BusyWait,
		}
		var order []string
		if _, err := core.Boot(k, cfg, func(rt *core.Runtime) int {
			const yields = 6
			if _, err := rt.Spawn(spawnRecorder(&order, "t0", yields), core.SpawnOpts{Scheduler: 0, StartDecoupled: true}); err != nil {
				panic(err)
			}
			if _, err := rt.Spawn(spawnRecorder(&order, "t1", yields), core.SpawnOpts{Scheduler: 0, StartDecoupled: true}); err != nil {
				panic(err)
			}
			rt.WaitAll()
			rt.Shutdown()
			return 0
		}); err != nil {
			t.Fatalf("boot: %v", err)
		}
		if err := e.Run(); err != nil {
			t.Fatalf("engine: %v", err)
		}
		return order
	}

	// Weight rank 1 (the ULP spawned second) 4x. Its KC is kc.w.1.
	weighted := run("tenant:weights=kc.w.1:4")
	count := func(order []string, tag string, upto int) int {
		n := 0
		for _, o := range order[:upto] {
			if o == tag {
				n++
			}
		}
		return n
	}
	// In the first half of the weighted schedule the heavy tenant must
	// hold the majority of slots despite being spawned second.
	half := len(weighted) / 2
	if h, l := count(weighted, "t1", half), count(weighted, "t0", half); h <= l {
		t.Errorf("heavy tenant got %d of the first %d slots vs %d: %v", h, half, l, weighted)
	}
	// Unweighted stride must stay fair: equal counts overall and near-
	// alternating in the first half.
	fair := run("tenant")
	if h, l := count(fair, "t1", half), count(fair, "t0", half); h-l > 1 || l-h > 1 {
		t.Errorf("unweighted stride skewed: %d vs %d in the first %d slots: %v", h, l, half, fair)
	}
}

// countingPolicy declines every decision, as fifo does, and counts the
// ready-queue picks that reach it.
type countingPolicy struct {
	base
	picks int
}

func (c *countingPolicy) PickReady(*blt.Scheduler) int { c.picks++; return 0 }

// TestPoolBuiltDirectlyTakesKernelPolicy: a pool built straight with
// blt.NewPool and no policy setting, as bench.AblateTLS and tasking.New
// build theirs, dispatches through the ULT half of the policy installed
// on its kernel, not only the kernel half.
func TestPoolBuiltDirectlyTakesKernelPolicy(t *testing.T) {
	e := sim.New()
	k := kernel.New(e, arch.Wallaby())
	pol := &countingPolicy{base: base{name: "counting"}}
	k.SetSchedPolicy(pol)
	root := k.NewTask("root", k.NewAddressSpace(), func(root *kernel.Task) int {
		pool, err := blt.NewPool(root, blt.Config{
			ProgCores: []int{0}, SyscallCores: []int{1, 2}, Idle: blt.BusyWait,
		})
		if err != nil {
			t.Error(err)
			return 1
		}
		for i := 0; i < 2; i++ {
			if _, err := pool.Spawn(func(b *blt.BLT) int {
				b.Decouple()
				for j := 0; j < 4; j++ {
					b.Yield()
				}
				b.Couple()
				return 0
			}, blt.SpawnOpts{Scheduler: 0}); err != nil {
				t.Error(err)
				return 1
			}
		}
		root.Wait()
		root.Wait()
		pool.Shutdown(root)
		return 0
	})
	k.Start(root, 0)
	if err := e.Run(); err != nil {
		t.Fatalf("engine: %v", err)
	}
	if pol.picks == 0 {
		t.Error("two decoupled BLTs yielding 4 times each reached the kernel's policy with no picks")
	}
}

// install sets a fresh policy parsed from spec on k, as planes.Install
// does; an empty spec keeps stock dispatch.
func install(t *testing.T, k *kernel.Kernel, spec string) {
	t.Helper()
	if spec == "" {
		return
	}
	p, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	k.SetSchedPolicy(p)
}
