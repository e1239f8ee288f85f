package blt

import (
	"bytes"
	"fmt"
	"testing"
	"unsafe"

	"repro/internal/arch"
	"repro/internal/kernel"
	"repro/internal/leakcheck"
	"repro/internal/sim"
)

// onSched0 is a one-program-core pool: every UC shares one ready queue.
func onSched0(idle IdlePolicy) Config {
	return Config{ProgCores: []int{0}, SyscallCores: []int{1, 2}, Idle: idle, SwitchTLS: true}
}

// TestBLTSizePin: the pending poll fits in the 160 B size class that a
// BLT had before it.
func TestBLTSizePin(t *testing.T) {
	if got := unsafe.Sizeof(BLT{}); got > 160 {
		t.Errorf("unsafe.Sizeof(BLT{}) = %d, want <= 160", got)
	}
}

// TestYieldUntilResumesOncePerWait: n UCs on one scheduler wait in
// YieldUntil on a flag the root sets after 50 µs. Every poll but the
// first runs inside another UC's scheduler pass, so each UC's context
// is resumed once for its wait however often it polled, and each miss
// still counts as one yield.
func TestYieldUntilResumesOncePerWait(t *testing.T) {
	for _, idle := range []IdlePolicy{BusyWait, Blocking} {
		t.Run(idle.String(), func(t *testing.T) {
			const n = 4
			set := false
			var polls, yields, steps [n]uint64
			runPool(t, arch.Wallaby(), onSched0(idle), func(root *kernel.Task, p *Pool) {
				for i := 0; i < n; i++ {
					i := i
					poll := func(c *kernel.Task) bool {
						polls[i]++
						c.Charge(c.Kernel().Machine().Costs.AtomicOp)
						return set
					}
					if _, err := p.Spawn(func(b *BLT) int {
						b.Decouple()
						_, _, y0 := b.Stats()
						s0 := b.uc.Steps()
						b.YieldUntil(poll)
						steps[i] = b.uc.Steps() - s0
						_, _, y1 := b.Stats()
						yields[i] = y1 - y0
						return 0
					}, SpawnOpts{Scheduler: 0}); err != nil {
						t.Fatal(err)
					}
				}
				root.Nanosleep(50 * sim.Microsecond)
				set = true
				reap(t, root, n)
			})
			for i := 0; i < n; i++ {
				if polls[i] < 20 {
					t.Errorf("UC %d polled %d times, want a long wait (>= 20)", i, polls[i])
				}
				if yields[i] != polls[i]-1 {
					t.Errorf("UC %d: %d yields for %d polls, want one per miss", i, yields[i], polls[i])
				}
				if steps[i] != 1 {
					t.Errorf("UC %d resumed %d times in one wait (%d polls), want 1", i, steps[i], polls[i])
				}
			}
		})
	}
}

// TestYieldUntilMissesZeroAllocs: a stretch of missed polls, run inside
// the waiting UCs' scheduler passes, allocates nothing.
func TestYieldUntilMissesZeroAllocs(t *testing.T) {
	polls := 0
	e, step := switchLoop(t, 4, func(b *BLT) int {
		b.Decouple()
		b.YieldUntil(func(c *kernel.Task) bool {
			polls++
			c.Charge(c.Kernel().Machine().Costs.AtomicOp)
			return false
		})
		return 0
	})
	step() // spawns, decouples, first polls
	before := polls
	if got := testing.AllocsPerRun(50, step); got != 0 {
		t.Errorf("missed polls allocate %.1f per slice, want 0", got)
	}
	if polls == before {
		t.Error("no UC polled during the pinned slices")
	}
	e.Stop()
	e.Shutdown()
}

// TestYieldUntilShutdownMidPoll stops the engine while a poll runs on
// another UC's goroutine, inside the Charge of the poll, and shuts it
// down there. The kill unwinds the goroutine that runs the pass and
// reaches the scheduler through its Step; Shutdown then kills every
// other UC, the one whose poll was running included, where it is
// parked. Nothing is left behind: no proc, no goroutine.
func TestYieldUntilShutdownMidPoll(t *testing.T) {
	switchLoop(t, 1, func(b *BLT) int { return 0 }) // warm-up
	base := leakcheck.Baseline()
	const n = 3
	e := sim.New()
	k := kernel.New(e, arch.Wallaby())
	var blts [n]*BLT
	var polls [n]int
	stoppedIn := -1
	root := k.NewTask("root", k.NewAddressSpace(), func(task *kernel.Task) int {
		p, err := NewPool(task, onSched0(BusyWait))
		if err != nil {
			t.Error(err)
			return 1
		}
		for i := 0; i < n; i++ {
			i := i
			poll := func(c *kernel.Task) bool {
				polls[i]++
				if polls[i] > 10 && stoppedIn < 0 && !blts[i].uc.Running() {
					stoppedIn = i // in another UC's pass
					e.Stop()
				}
				c.Charge(c.Kernel().Machine().Costs.AtomicOp)
				return false
			}
			b, err := p.Spawn(func(b *BLT) int {
				b.Decouple()
				b.YieldUntil(poll)
				return 0
			}, SpawnOpts{Scheduler: 0})
			if err != nil {
				t.Error(err)
				return 1
			}
			blts[i] = b
		}
		task.Wait() // the waits never end
		return 0
	})
	k.Start(root, 0)
	if err := e.RunUntil(e.Now().Add(sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	e.Shutdown()
	if stoppedIn < 0 {
		t.Fatal("the engine never stopped inside a poll run by another UC")
	}
	if live := e.LiveProcs(); live != 0 {
		t.Fatalf("%d procs live after Shutdown", live)
	}
	leakcheck.Check(t, base)
}

// TestYieldUntilMatchesYieldLoop runs the same staggered waits through
// YieldUntil and through the loop it replaces, for=!poll{Yield}, on one
// and two schedulers under both idle policies: the end time, kernel
// counters, dispatches, per-UC yields and the trace must not differ.
func TestYieldUntilMatchesYieldLoop(t *testing.T) {
	run := func(cfg Config, loop bool) string {
		const n = 5
		e := sim.New()
		tr := sim.NewTracer(0)
		e.SetTracer(tr)
		k := kernel.New(e, arch.Albireo())
		var blts []*BLT
		var scheds []*Scheduler
		root := k.NewTask("root", k.NewAddressSpace(), func(task *kernel.Task) int {
			p, err := NewPool(task, cfg)
			if err != nil {
				t.Error(err)
				return 1
			}
			released := 0
			for i := 0; i < n; i++ {
				i := i
				poll := func(c *kernel.Task) bool {
					c.Charge(sim.Duration(1+i) * c.Kernel().Machine().Costs.AtomicOp)
					return released > i
				}
				b, err := p.Spawn(func(b *BLT) int {
					b.Decouple()
					for round := 0; round < 3; round++ {
						b.Carrier().Compute(sim.Duration(1+(i*round)%4) * sim.Microsecond)
						if loop {
							for !poll(b.Carrier()) {
								b.Yield()
							}
						} else {
							b.YieldUntil(poll)
						}
					}
					return 0
				}, SpawnOpts{Scheduler: -1})
				if err != nil {
					t.Error(err)
					return 1
				}
				blts = append(blts, b)
			}
			for i := 0; i < n; i++ {
				task.Nanosleep(7 * sim.Microsecond)
				released++
			}
			reap(t, task, n)
			scheds = p.Schedulers()
			p.Shutdown(task)
			return 0
		})
		k.Start(root, 0)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		fmt.Fprintf(&b, "end=%d syscalls=%d ctxsw=%d dispatches=", int64(e.Now()), k.Syscalls(), k.ContextSwitches())
		for _, s := range scheds {
			fmt.Fprintf(&b, "%d,", s.Dispatches())
		}
		b.WriteString(" yields=")
		for _, x := range blts {
			_, _, y := x.Stats()
			fmt.Fprintf(&b, "%d,", y)
		}
		b.WriteByte('\n')
		if err := tr.Dump(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	for _, idle := range []IdlePolicy{BusyWait, Blocking} {
		for _, cfg := range []Config{onSched0(idle), testConfig(idle)} {
			want, got := run(cfg, true), run(cfg, false)
			if got != want {
				g, w := bytes.Split([]byte(got), []byte("\n")), bytes.Split([]byte(want), []byte("\n"))
				for i := range g {
					if i >= len(w) || !bytes.Equal(g[i], w[i]) {
						var wl []byte
						if i < len(w) {
							wl = w[i]
						}
						t.Fatalf("%s/%d cores: YieldUntil differs from the loop at line %d:\n  got:  %s\n  want: %s",
							idle, len(cfg.ProgCores), i+1, g[i], wl)
					}
				}
				t.Fatalf("%s/%d cores: YieldUntil's run is a prefix of the loop's", idle, len(cfg.ProgCores))
			}
		}
	}
}
