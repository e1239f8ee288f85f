package kernel

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/arch"
	"repro/internal/leakcheck"
	"repro/internal/probe"
	"repro/internal/sim"
)

// TestTaskSizePin: a Task, which carries its sim.Proc, sits exactly on
// Go's 480-byte size class. It replaces the three objects a clone used
// to allocate: a Task in the 384-byte class, its Proc in the 112-byte
// class and a 16-byte body closure, 512 B in all. Growing it moves
// every task to the 512-byte class, which gives that saving back and
// which the scale workload, with a million tasks, pays in memory; spin
// state lives in a caller-owned Spinner for that reason.
func TestTaskSizePin(t *testing.T) {
	if got := unsafe.Sizeof(Task{}); got > 480 {
		t.Errorf("unsafe.Sizeof(Task{}) = %d, want <= 480", got)
	}
}

// yieldWorld runs busy-wait loops — a poll charge, then sched_yield —
// on three tasks sharing core 0 while a fourth computes on core 1,
// under a throttle that delays every other sched_yield entry, a program
// watching syscall exits and switches, and a tracer recording the
// syscall spans. With spin set each loop runs as a spin continuation
// over a Spinner; otherwise it calls the blocking SchedYield. It
// returns a record of every probe fire and every span record plus the
// kernel's and the tasks' counters, and how many entries the throttle
// delayed. Each span must last as long as its call's syscall:exit Dur:
// it is stamped at entry, before the Delay charge.
func yieldWorld(t *testing.T, spin bool) ([]string, uint64) {
	t.Helper()
	e := sim.New()
	tr := sim.NewTracer(0)
	e.SetTracer(tr)
	k := New(e, arch.Wallaby())
	var rec []string
	th := probe.NewThrottle("kc.", "sched_yield", sim.Microsecond, 1)
	k.Probes().Attach("throttle", th.Fire, probe.PSyscallEnter)
	yields := countCalls(k, "sched_yield")
	var exits []sim.Duration
	k.Probes().Attach("watch", func(c *probe.Ctx) probe.Verdict {
		name := ""
		if c.Task != nil {
			name = c.Task.Name()
		}
		rec = append(rec, fmt.Sprintf("%v %v %s %s dur=%v", c.Now, c.Point, c.Site, name, c.Dur))
		if c.Point == probe.PSyscallExit {
			exits = append(exits, c.Dur)
		}
		return probe.Verdict{}
	}, probe.PSyscallExit, probe.PSchedSwitch)
	space := k.NewAddressSpace()
	var tasks []*Task
	for i := 0; i < 3; i++ {
		polls := 20 + 7*i
		task := k.NewTask(fmt.Sprintf("kc.%d", i), space, func(t *Task) int {
			poll := sim.Duration(300+100*i) * sim.Nanosecond
			if !spin {
				for n := 0; n < polls; n++ {
					t.Charge(poll)
					t.SchedYield()
				}
				return 0
			}
			var y Spinner
			n, yielding := 0, false
			t.Spin(func() bool {
				if yielding {
					if !y.SchedYield(t) {
						return false
					}
					yielding = false
					n++
				}
				if n == polls {
					return true
				}
				yielding = true
				t.Charge(poll)
				return false
			})
			return 0
		})
		task.SetAffinity(0)
		k.Start(task, 0)
		tasks = append(tasks, task)
	}
	other := k.NewTask("compute", space, func(t *Task) int {
		for i := 0; i < 40; i++ {
			t.Compute(700 * sim.Nanosecond)
		}
		return 0
	})
	other.SetAffinity(1)
	k.Start(other, 0)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	begins := map[uint64]sim.Time{}
	ends := 0
	for _, ev := range tr.Events() {
		switch ev.Ph {
		case sim.PhBegin:
			begins[ev.Span] = ev.At
		case sim.PhEnd:
			if d := ev.At.Sub(begins[ev.Span]); ends >= len(exits) || d != exits[ends] {
				t.Errorf("span %d lasts %v, not its call's syscall:exit Dur", ev.Span, d)
			}
			ends++
		default:
			continue
		}
		rec = append(rec, fmt.Sprintf("%v %s %s core=%d span=%d", ev.At, ev.Msg, ev.Task, ev.Core, ev.Span))
	}
	if ends != len(exits) {
		t.Errorf("%d syscall spans closed for %d syscall:exit fires", ends, len(exits))
	}
	rec = append(rec, fmt.Sprintf("end=%v syscalls=%d yields=%d ctxsw=%d", e.Now(), k.Syscalls(), *yields, k.ContextSwitches()))
	for _, task := range tasks {
		rec = append(rec, fmt.Sprintf("%s cpu=%v ctxsw=%d", task.Name(), task.CPUTime(), task.CtxSwitches()))
	}
	_, delayed := th.Stats()
	return rec, delayed
}

// TestSpinnerMatchesSchedYield: the staged sched_yield run as a spin
// continuation makes the same probe fires at the same times, with the
// same Delay charges, switches and syscall spans, as the blocking call.
func TestSpinnerMatchesSchedYield(t *testing.T) {
	want, wantDelayed := yieldWorld(t, false)
	got, gotDelayed := yieldWorld(t, true)
	switched := false
	for _, r := range want {
		switched = switched || strings.Contains(r, "sched:switch")
	}
	if !switched || wantDelayed == 0 {
		t.Fatalf("scenario misses a stage: switched=%v, %d throttle delays", switched, wantDelayed)
	}
	if gotDelayed != wantDelayed {
		t.Errorf("throttle delayed %d entries with the Spinner, %d with the blocking call", gotDelayed, wantDelayed)
	}
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Fatalf("record %d:\n  spin:     %s\n  blocking: %s", i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d records with the Spinner, %d with the blocking call", len(got), len(want))
	}
}

// TestShutdownKillsTaskParkedMidSpin: Engine.Shutdown kills kernel tasks
// whose busy-wait spins are cut short — one switched out inside
// sched_yield, one with its next pass pending — and every goroutine
// exits.
func TestShutdownKillsTaskParkedMidSpin(t *testing.T) {
	base := runtime.NumGoroutine()
	e := sim.New()
	k := New(e, arch.Wallaby())
	space := k.NewAddressSpace()
	var tasks []*Task
	for i := 0; i < 2; i++ {
		task := k.NewTask(fmt.Sprintf("kc.%d", i), space, func(t *Task) int {
			var y Spinner
			yielding := false
			t.Spin(func() bool {
				if yielding && y.SchedYield(t) {
					yielding = false
				}
				if !yielding {
					yielding = true
					t.Charge(sim.Microsecond)
				}
				return false
			})
			return 0
		})
		task.SetAffinity(0)
		k.Start(task, 0)
		tasks = append(tasks, task)
	}
	if err := e.RunUntil(sim.Time(50 * sim.Microsecond)); err != nil {
		t.Fatal(err)
	}
	if k.ContextSwitches() == 0 {
		t.Fatal("the spinners never switched")
	}
	states := []TaskState{tasks[0].State(), tasks[1].State()}
	if states[0] != TaskReady && states[1] != TaskReady {
		t.Fatalf("task states %v: neither is switched out mid-spin", states)
	}
	e.Shutdown()
	if n := e.LiveProcs(); n != 0 {
		t.Errorf("LiveProcs = %d after Shutdown", n)
	}
	leakcheck.Check(t, base)
}
