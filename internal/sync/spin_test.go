package sync_test

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/kernel"
	"repro/internal/probe"
	"repro/internal/sim"
	usync "repro/internal/sync"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current code")

// checkGolden compares got with testdata/<name>.golden, or rewrites the
// file under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := "testdata/" + name + ".golden"
	if *update {
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

// countSyscalls counts syscall:enter fires per syscall name.
func countSyscalls(k *kernel.Kernel) map[string]int {
	n := map[string]int{}
	k.Probes().Attach("count-syscalls", func(c *probe.Ctx) probe.Verdict {
		n[c.Site]++
		return probe.Verdict{}
	}, probe.PSyscallEnter)
	return n
}

// spinRun runs eight threads, four pinned to each of two cores, taking
// the named lock 30 times each around a critical section of 40 µs plus
// 5 µs per rank: longer than 16 polls, so waiters yield and switch. A
// throttle delays sched_yield entries, so Delay verdicts land inside
// spins. It returns one line: the end time, the kernel's syscall and
// switch counts, the throttle's delays, every thread's CPU time and
// switches, and the SHA-256 of the tracer's dump when traced.
func spinRun(t *testing.T, m *arch.Machine, name string, traced bool) string {
	t.Helper()
	const threads, cores, acquisitions = 8, 2, 30
	e := sim.New()
	var tr *sim.Tracer
	if traced {
		tr = sim.NewTracer(0)
		e.SetTracer(tr)
	}
	k := kernel.New(e, m)
	th := probe.NewThrottle("w", "sched_yield", sim.Microsecond, 1)
	k.Probes().Attach("throttle", th.Fire, probe.PSyscallEnter)
	// A thread's *Task is invalid after its Join, so each thread's CPU
	// time and switches are read as it exits.
	usage := map[string]string{}
	k.Probes().Attach("usage", func(c *probe.Ctx) probe.Verdict {
		if kid, ok := c.Task.(*kernel.Task); ok {
			usage[kid.Name()] = fmt.Sprintf("%v/%d", kid.CPUTime(), kid.CtxSwitches())
		}
		return probe.Verdict{}
	}, probe.PTaskExit)
	kids := make([]*kernel.Task, threads)
	root := k.NewTask("root", k.NewAddressSpace(), func(rt *kernel.Task) int {
		l, err := usync.New(rt, name, usync.Config{})
		if err != nil {
			t.Error(err)
			return 1
		}
		for i := range kids {
			hold := 40*sim.Microsecond + sim.Duration(i)*5*sim.Microsecond
			kids[i] = rt.ClonePinned(fmt.Sprintf("w%d", i), kernel.PThreadFlags, i%cores,
				func(t *kernel.Task) int {
					for n := 0; n < acquisitions; n++ {
						l.Lock(t)
						t.Compute(hold)
						l.Unlock(t)
					}
					return 0
				})
		}
		for _, kid := range kids {
			rt.Join(kid)
		}
		return 0
	})
	k.Start(root, 0)
	if err := e.Run(); err != nil {
		t.Fatalf("%s %s: %v", m.Name, name, err)
	}
	_, delayed := th.Stats()
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s traced=%v end=%v syscalls=%d ctxsw=%d delayed=%d",
		m.Name, name, traced, e.Now(), k.Syscalls(), k.ContextSwitches(), delayed)
	for i := range kids {
		w := fmt.Sprintf("w%d", i)
		fmt.Fprintf(&b, " %s=%s", w, usage[w])
	}
	if tr != nil {
		var dump bytes.Buffer
		if err := tr.Dump(&dump); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, " dump=%x", sha256.Sum256(dump.Bytes()))
	}
	return b.String()
}

// TestLockSpinGolden pins every lock's busy-wait schedule to committed
// output: both machines, all six algorithms, untraced and traced. A
// spin loop that reads its word before its poll charge has elapsed, or
// yields on a different poll, moves an event and changes a line.
func TestLockSpinGolden(t *testing.T) {
	var out strings.Builder
	for _, m := range arch.Machines() {
		for _, name := range usync.Names() {
			for _, traced := range []bool{false, true} {
				fmt.Fprintln(&out, spinRun(t, m, name, traced))
			}
		}
	}
	checkGolden(t, "lockspin", out.String())
}

// TestContendedLockZeroAllocs: a contended acquisition allocates
// nothing in steady state. Four tasks per core on two cores take each
// lock in an endless loop around a 40 µs critical section, longer than
// 16 polls; after one slice absorbs the one-time growth (queue nodes,
// run queues, futex table), a slice of virtual time allocates nothing. The spinning locks must yield inside the slice,
// and the futex mutex must sleep in it.
func TestContendedLockZeroAllocs(t *testing.T) {
	for _, name := range usync.Names() {
		t.Run(name, func(t *testing.T) {
			e := sim.New()
			k := kernel.New(e, arch.Wallaby())
			acquired := 0
			root := k.NewTask("root", k.NewAddressSpace(), func(rt *kernel.Task) int {
				l, err := usync.New(rt, name, usync.Config{})
				if err != nil {
					t.Error(err)
					return 1
				}
				for i := 0; i < 8; i++ {
					rt.ClonePinned("w", kernel.PThreadFlags, i%2, func(t *kernel.Task) int {
						for {
							l.Lock(t)
							acquired++
							t.Compute(40 * sim.Microsecond)
							l.Unlock(t)
						}
					})
				}
				return 0 // the threads run on, never returning
			})
			k.Start(root, 0)
			next := e.Now()
			step := func() {
				next = next.Add(sim.Millisecond)
				if err := e.RunUntil(next); err != nil {
					t.Fatal(err)
				}
			}
			step()
			if got := testing.AllocsPerRun(20, step); got != 0 {
				t.Errorf("contended %s acquisitions allocate %.1f per slice, want 0", name, got)
			}
			// Count over one more slice, after the pin, so that the pin
			// measures the path with no program attached.
			calls := countSyscalls(k)
			before := acquired
			step()
			wait := "sched_yield"
			if name == "futex" {
				wait = "futex_wait"
			}
			if acquired == before || calls[wait] == 0 {
				t.Errorf("%s: %d acquisitions and %d %s calls in a slice, want both positive",
					name, acquired-before, calls[wait], wait)
			}
			e.Stop()
			e.Shutdown()
		})
	}
}
