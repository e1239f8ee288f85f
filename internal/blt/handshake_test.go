package blt

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/fault"
	"repro/internal/kernel"
	"repro/internal/leakcheck"
	"repro/internal/probe"
	"repro/internal/sim"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current code")

// checkGolden compares got with testdata/<name>.golden, or rewrites the
// file under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := "testdata/" + name + ".golden"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got == string(want) {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			t.Fatalf("%s differs at line %d:\n  got:  %q\n  want: %q", path, i+1, gl, wl)
		}
	}
}

// handshakeRounds sizes each BLT's loop in the handshake program.
const handshakeRounds = 4

// handshakeBody is BLT i's body in the handshake program. The bodies
// mix every way a BLT crosses between its KC and a scheduler: Exec
// brackets between ULT yields (ending decoupled, so the terminal couple
// is ucBody's), bare Couple/Decouple with a yield on each side (ending
// coupled), and decoupled compute with a coupled syscall burst. A
// failed couple, possible only in the faulted run, ends the body with a
// status that names the pattern.
func handshakeBody(i int) Body {
	return func(b *BLT) int {
		switch i % 3 {
		case 0:
			b.Decouple()
			for r := 0; r < handshakeRounds; r++ {
				for y := 0; y <= (i+r)%3; y++ {
					b.Yield()
				}
				if err := b.Exec(func(kc *kernel.Task) {
					kc.Getpid()
					kc.Charge(sim.Duration(1+r) * sim.Microsecond)
				}); err != nil {
					return 10
				}
			}
		case 1:
			for r := 0; r < handshakeRounds; r++ {
				b.Decouple()
				b.Yield()
				if err := b.Couple(); err != nil {
					return 11
				}
				b.Carrier().Getpid()
				b.Yield() // coupled: the KC's sched_yield
			}
		default:
			b.Decouple()
			for r := 0; r < handshakeRounds; r++ {
				b.Carrier().Charge(sim.Duration(2+i) * sim.Microsecond)
				b.Yield()
				if err := b.Couple(); err != nil {
					return 12
				}
				b.Carrier().Getpid()
				b.Carrier().Getpid()
				b.Decouple()
			}
		}
		return 0
	}
}

// handshakeBLTs is the number of BLTs the handshake program spawns: b0
// to b3 on KCs of their own, b4 on b1's KC and b5 on b2's (M:N hosts).
const handshakeBLTs = 6

// handshakeRun runs the handshake program on k with the given pool
// config and returns one golden line: the end time, syscalls, kernel
// context switches, each BLT's exit status and couples, decouples and
// yields, the injections of plane (nil: none) and, when traced, the
// SHA-256 of the trace dump.
func handshakeRun(t *testing.T, k *kernel.Kernel, cfg Config, plane *fault.Plane, tr *sim.Tracer) (*Pool, string) {
	t.Helper()
	e := k.Engine()
	if tr != nil {
		e.SetTracer(tr)
	}
	var pool *Pool
	root := k.NewTask("root", k.NewAddressSpace(), func(task *kernel.Task) int {
		p, err := NewPool(task, cfg)
		if err != nil {
			t.Error(err)
			return 1
		}
		pool = p
		// A BLT joins its host right after the host's first BLT, while
		// that one still runs.
		var blts [handshakeBLTs]*BLT
		for _, i := range []int{0, 1, 4, 2, 5, 3} {
			opts := SpawnOpts{Name: fmt.Sprintf("b%d", i), Scheduler: -1}
			if i >= 4 {
				opts.Host = blts[i-3].Host()
			}
			if blts[i], err = p.Spawn(handshakeBody(i), opts); err != nil {
				t.Error(err)
				p.Shutdown(task)
				return 1
			}
		}
		for _, b := range blts {
			for !b.Done() {
				task.Nanosleep(5 * sim.Microsecond)
			}
		}
		p.Shutdown(task)
		return 0
	})
	k.Start(root, 0)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "end=%d syscalls=%d ctxsw=%d", int64(e.Now()), k.Syscalls(), k.ContextSwitches())
	for _, x := range pool.BLTs() {
		couples, decouples, yields := x.Stats()
		fmt.Fprintf(&b, " %s=%d/%d/%d/%d", x.Name(), x.ExitStatus(), couples, decouples, yields)
	}
	var inj uint64
	if plane != nil {
		inj = plane.Injections()
	}
	fmt.Fprintf(&b, " injections=%d", inj)
	if tr != nil {
		h := sha256.New()
		if err := tr.Dump(h); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, " trace=%x", h.Sum(nil)[:12])
	}
	return pool, b.String()
}

// TestHandshakeGolden pins the couple/decouple handshake where the
// chaos goldens do not reach: for both machines, both idle policies,
// one and two program cores, with and without work stealing, each
// untraced and traced, one line per run of the handshake program, whose
// BLTs share KCs two to a host. A faulted run kills one KC at the
// trampoline's idle draw and another at its draw with a couple request
// queued, grants the first a restart from a task:restart program, and
// kills a scheduler. The goroutine count must return to its baseline
// after every run (leakcheck).
func TestHandshakeGolden(t *testing.T) {
	cfgFor := func(idle IdlePolicy, progCores int, stealing bool) Config {
		cfg := Config{SyscallCores: []int{2, 3}, Idle: idle, SwitchTLS: true, WorkStealing: stealing}
		for c := 0; c < progCores; c++ {
			cfg.ProgCores = append(cfg.ProgCores, c)
		}
		return cfg
	}
	handshakeRun(t, kernel.New(sim.New(), arch.Wallaby()), cfgFor(BusyWait, 2, false), nil, nil)
	base := leakcheck.Baseline()
	var out bytes.Buffer
	for _, m := range arch.Machines() {
		for _, idle := range []IdlePolicy{BusyWait, Blocking} {
			for progCores := 1; progCores <= 2; progCores++ {
				for _, stealing := range []bool{false, true} {
					for _, traced := range []bool{false, true} {
						var tr *sim.Tracer
						if traced {
							tr = sim.NewTracer(0)
						}
						_, line := handshakeRun(t, kernel.New(sim.New(), m), cfgFor(idle, progCores, stealing), nil, tr)
						fmt.Fprintf(&out, "%s/%s/prog=%d/steal=%v/traced=%v %s\n", m.Name, idle, progCores, stealing, traced, line)
						leakcheck.Check(t, base)
					}
				}
			}
		}
	}

	// The faulted run. kc.b1 and kc.b2 each serve two BLTs, so a
	// request is queued at both of the draws below. The trampoline
	// draws kc_kill twice a cycle, once on going idle and once on
	// waking with a couple request queued; the third draw is the second
	// cycle's idle draw, the fourth its draw with a request queued.
	specs := []fault.Spec{
		{Site: probe.SiteKCKill, Nth: 3, TaskPrefix: "kc.b1"},
		{Site: probe.SiteKCKill, Nth: 4, TaskPrefix: "kc.b2"},
		{Site: probe.SiteSchedKill, Nth: 5, TaskPrefix: "sched.c1"},
	}
	k := kernel.New(sim.New(), arch.Wallaby())
	plane := fault.NewPlane(3, specs)
	plane.Attach(k.Probes())
	restarts := 0
	k.Probes().Attach("restart-kc.b1", func(c *probe.Ctx) probe.Verdict {
		if c.Site != "kc.b1" {
			return probe.Verdict{}
		}
		restarts++
		return probe.Verdict{Delay: 3 * sim.Microsecond}
	}, probe.PTaskRestart)
	tr := sim.NewTracer(0)
	pool, line := handshakeRun(t, k, cfgFor(BusyWait, 2, false), plane, tr)
	var dump bytes.Buffer
	if err := tr.Dump(&dump); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"kc_kill: kc.b1 dies idle",
		"kc_kill: kc.b2 dies with couple request queued",
		"kc.respawn: kc.b1 restarted",
	} {
		if !strings.Contains(dump.String(), want) {
			t.Errorf("faulted run: the trace has no %q", want)
		}
	}
	if !pool.SchedulerAt(1).Dead() {
		t.Error("faulted run: sched.c1 survived its kill draw")
	}
	// One grant at creation (restartable), one at the respawn.
	if restarts != 2 {
		t.Errorf("faulted run: task:restart consulted %d times for kc.b1, want 2", restarts)
	}
	fmt.Fprintf(&out, "faulted %s\n", line)
	for _, s := range plane.Stats() {
		fmt.Fprintf(&out, "stat %s\n", s)
	}
	leakcheck.Check(t, base)
	checkGolden(t, "handshake", out.String())
}

// TestCoupledExitPathsReachKC: a BLT runs coupled on a KC the trampoline
// handed it (uctx Enter), so what ends it there reaches the KC's own
// goroutine. A panic in the coupled body is trapped as the KC's panic;
// a Shutdown while the body charges on the KC kills the KC and the UC
// with it, and leaves no goroutine behind.
func TestCoupledExitPathsReachKC(t *testing.T) {
	for _, idle := range []IdlePolicy{BusyWait, Blocking} {
		t.Run(idle.String(), func(t *testing.T) {
			base := leakcheck.Baseline()
			run := func(trap bool, body Body) (*sim.Engine, error) {
				e := sim.New()
				e.SetTrapPanics(trap)
				k := kernel.New(e, arch.Wallaby())
				root := k.NewTask("root", k.NewAddressSpace(), func(task *kernel.Task) int {
					p, err := NewPool(task, onSched0(idle))
					if err != nil {
						t.Error(err)
						return 1
					}
					if _, err := p.Spawn(body, SpawnOpts{Name: "uc"}); err != nil {
						t.Error(err)
						return 1
					}
					task.Wait()
					return 0
				})
				k.Start(root, 0)
				return e, e.RunUntil(sim.Time(0).Add(sim.Millisecond))
			}
			// Enter loaded the UC for the Couple below, not for its
			// first run: the panic comes after a full round trip.
			e, err := run(true, func(b *BLT) int {
				b.Decouple()
				if err := b.Couple(); err != nil {
					t.Error(err)
				}
				panic("boom while coupled")
			})
			if err == nil || !strings.Contains(err.Error(), "kc.uc") || !strings.Contains(err.Error(), "boom while coupled") {
				t.Errorf("RunUntil = %v, want the coupled panic trapped as kc.uc's", err)
			}
			e.Shutdown()
			leakcheck.Check(t, base)

			e, err = run(false, func(b *BLT) int {
				b.Decouple()
				if err := b.Couple(); err != nil {
					t.Error(err)
				}
				for {
					b.Carrier().Charge(sim.Microsecond)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			e.Shutdown()
			if live := e.LiveProcs(); live != 0 {
				t.Errorf("%d procs live after Shutdown", live)
			}
			leakcheck.Check(t, base)
		})
	}
}
