package kernel

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/probe"
	"repro/internal/sim"
)

// BenchmarkGetpid measures the real cost of simulating one getpid
// system-call (simulation overhead, not virtual time): bare, and with
// observe-only programs at syscall:enter and syscall:exit, which open
// the call's frame and fire twice per call.
func BenchmarkGetpid(b *testing.B) {
	for _, observed := range []bool{false, true} {
		name := "bare"
		if observed {
			name = "observed"
		}
		b.Run(name, func(b *testing.B) {
			e := sim.New()
			k := New(e, arch.Wallaby())
			if observed {
				k.Probes().Attach("obs", func(*probe.Ctx) probe.Verdict { return probe.Verdict{} },
					probe.PSyscallEnter, probe.PSyscallExit)
			}
			task := k.NewTask("bench", k.NewAddressSpace(), func(t *Task) int {
				for i := 0; i < b.N; i++ {
					t.Getpid()
				}
				return 0
			})
			k.Start(task, 0)
			b.ReportAllocs()
			b.ResetTimer()
			if err := e.Run(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkSimulatedFutexPingPong measures a futex wake/wait round trip
// between two tasks on two cores.
func BenchmarkSimulatedFutexPingPong(b *testing.B) {
	e := sim.New()
	k := New(e, arch.Wallaby())
	space := k.NewAddressSpace()
	var semA, semB *Semaphore
	setup := k.NewTask("setup", space, func(t *Task) int {
		var err error
		if semA, err = t.NewSemaphore(0); err != nil {
			b.Error(err)
		}
		if semB, err = t.NewSemaphore(0); err != nil {
			b.Error(err)
		}
		a := k.NewTask("a", space, func(t *Task) int {
			for i := 0; i < b.N; i++ {
				semA.Post(t)
				semB.Wait(t)
			}
			return 0
		})
		c := k.NewTask("c", space, func(t *Task) int {
			for i := 0; i < b.N; i++ {
				semA.Wait(t)
				semB.Post(t)
			}
			return 0
		})
		a.SetAffinity(0)
		c.SetAffinity(1)
		k.Start(a, 0)
		k.Start(c, 0)
		return 0
	})
	k.Start(setup, 0)
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSimulatedSchedYield measures the kernel scheduler's real cost
// per simulated context switch (two tasks ping-pong on one core).
func BenchmarkSimulatedSchedYield(b *testing.B) {
	e := sim.New()
	k := New(e, arch.Wallaby())
	done := false
	a := k.NewTask("a", k.NewAddressSpace(), func(t *Task) int {
		for i := 0; i < b.N; i++ {
			t.SchedYield()
		}
		done = true
		return 0
	})
	c := k.NewTask("c", k.NewAddressSpace(), func(t *Task) int {
		for !done {
			t.SchedYield()
		}
		return 0
	})
	a.SetAffinity(0)
	c.SetAffinity(0)
	k.Start(a, 0)
	k.Start(c, 0)
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}
