package kernel

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/mem"
	"repro/internal/probe"
	"repro/internal/sim"
)

// With no tracer installed, the kernel builds no trace instant: a
// handled signal delivery and the injected futex faults (a lost wake, a
// spurious wakeup) format and box nothing, so each allocates nothing.

// untracedLoop starts one task in space per body, each looping on its
// body on a core of its own, and returns a step that runs the engine
// for a fixed slice of virtual time.
func untracedLoop(t *testing.T, k *Kernel, space *mem.AddressSpace, bodies ...func(*Task)) func() {
	t.Helper()
	for i, body := range bodies {
		task := k.NewTask("loop", space, func(t *Task) int {
			for {
				body(t)
				t.Compute(sim.Microsecond)
			}
		})
		task.SetAffinity(i)
		k.Start(task, 0)
	}
	e := k.Engine()
	next := e.Now()
	return func() {
		next = next.Add(200 * sim.Microsecond)
		if err := e.RunUntil(next); err != nil {
			t.Fatal(err)
		}
	}
}

// dropAt attaches a fault:site program that drops every fire at site.
func dropAt(k *Kernel, site string) {
	k.Probes().Attach("drop-"+site, func(c *probe.Ctx) probe.Verdict {
		return probe.Verdict{Drop: c.Site == site}
	}, probe.PFaultSite)
}

func TestUntracedSignalAndFaultsZeroAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		// loop builds the workload and returns its step and a count of
		// the events it must make.
		loop func(k *Kernel) (step func(), events func() uint64)
	}{
		{"handled-signal", func(k *Kernel) (func(), func() uint64) {
			var handled uint64
			registered := false
			step := untracedLoop(t, k, k.NewAddressSpace(), func(t *Task) {
				if !registered {
					t.Sigaction(SIGUSR1, func(*Task, int) { handled++ })
					registered = true
				}
				if err := t.Kill(t.PID(), SIGUSR1); err != nil {
					panic(err)
				}
			})
			return step, func() uint64 { return handled }
		}},
		{"lost-wake", func(k *Kernel) (func(), func() uint64) {
			dropAt(k, "futex_lost_wake")
			space := k.NewAddressSpace()
			addr, err := space.Mmap(8, semProt, "word", true, nil)
			if err != nil {
				t.Fatal(err)
			}
			step := untracedLoop(t, k, space,
				func(t *Task) {
					if err := t.FutexWaitTimeout(addr, 0, 5*sim.Microsecond); err != ErrTimedOut {
						panic(err)
					}
				},
				func(t *Task) { t.FutexWake(addr, 1) })
			return step, func() uint64 { return k.fxStats.Lost }
		}},
		{"spurious-wakeup", func(k *Kernel) (func(), func() uint64) {
			dropAt(k, "futex_spurious")
			space := k.NewAddressSpace()
			addr, err := space.Mmap(8, semProt, "word", true, nil)
			if err != nil {
				t.Fatal(err)
			}
			step := untracedLoop(t, k, space, func(t *Task) {
				if err := t.FutexWait(addr, 0); err != ErrFutexAgain {
					panic(err)
				}
			})
			return step, func() uint64 { return k.fxStats.Spurious }
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := sim.New()
			k := New(e, arch.Wallaby())
			step, events := tc.loop(k)
			step() // absorb one-time growth: first dispatch, handler map, timer pool
			before := events()
			if got := testing.AllocsPerRun(50, step); got != 0 {
				t.Errorf("untraced %s loop allocates %.1f per slice, want 0", tc.name, got)
			}
			if events() == before {
				t.Errorf("no %s happened in the measured slices", tc.name)
			}
			e.Stop()
			e.Shutdown()
		})
	}
}
