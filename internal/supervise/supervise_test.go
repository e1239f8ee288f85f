package supervise

import (
	"errors"
	"testing"

	"repro/internal/arch"
	"repro/internal/fs"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/probe"
	"repro/internal/sim"
)

func newKernel(t *testing.T) (*sim.Engine, *kernel.Kernel) {
	t.Helper()
	e := sim.New()
	return e, kernel.New(e, arch.Wallaby())
}

// TestLimitsRejectAtAdmission drives each rlimit over its cap and checks
// the kernel's admission sites fail with the matching error, count the
// hit, and create no state (the futex table in particular must not grow
// from a rejected wait).
func TestLimitsRejectAtAdmission(t *testing.T) {
	e, k := newKernel(t)
	p := New(k, Config{
		Tick: -1, // limits only
		Limits: Limits{
			MaxThreads:      2,
			MaxFDs:          2,
			MaxTimers:       1,
			MaxFutexWaiters: 1,
		},
	})
	p.Install()
	space := k.NewAddressSpace()
	a, err := space.Mmap(8, mem.ProtRead|mem.ProtWrite, "word-a", true, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := space.Mmap(8, mem.ProtRead|mem.ProtWrite, "word-b", true, nil)
	if err != nil {
		t.Fatal(err)
	}
	var cloneErr, fdErr error
	root := k.NewTask("root", space, func(task *Task) int { return rootBody(t, p, task, a, b, &cloneErr, &fdErr) })
	k.Start(root, 0)
	if err := e.Run(); err != nil {
		t.Fatalf("engine: %v", err)
	}
	if !errors.Is(cloneErr, kernel.ErrThreadLimit) {
		t.Errorf("third clone: %v, want ErrThreadLimit", cloneErr)
	}
	if !errors.Is(fdErr, kernel.ErrFDLimit) {
		t.Errorf("third open: %v, want ErrFDLimit", fdErr)
	}
	hits := p.LimitHits()
	if hits.Threads != 1 || hits.FDs != 1 || hits.Timers != 1 || hits.FutexWaiters != 1 {
		t.Errorf("limit hits %+v, want one per limit", hits)
	}
	if n := k.FutexTableSize(); n != 0 {
		t.Errorf("futex table retains %d queues (rejected wait populated the table?)", n)
	}
}

type Task = kernel.Task

// TestFutexTimerFireReleasesTimerSlot: a timed futex wait takes a
// MaxTimers slot at admission and its timer:fire (kind futex) gives it
// back, so back-to-back timed waits under MaxTimers=1 all get a timer.
func TestFutexTimerFireReleasesTimerSlot(t *testing.T) {
	e, k := newKernel(t)
	p := New(k, Config{Tick: -1, Limits: Limits{MaxTimers: 1}})
	p.Install()
	space := k.NewAddressSpace()
	word, err := space.Mmap(8, mem.ProtRead|mem.ProtWrite, "word", true, nil)
	if err != nil {
		t.Fatal(err)
	}
	var errs []error
	root := k.NewTask("root", space, func(task *Task) int {
		for i := 0; i < 3; i++ {
			errs = append(errs, task.FutexWaitTimeout(word, 0, 10*sim.Microsecond))
		}
		return 0
	})
	k.Start(root, 0)
	if err := e.Run(); err != nil {
		t.Fatalf("engine: %v", err)
	}
	for i, err := range errs {
		if !errors.Is(err, kernel.ErrTimedOut) {
			t.Errorf("timed wait %d: %v, want ErrTimedOut", i, err)
		}
	}
	if hits := p.LimitHits(); hits.Timers != 0 {
		t.Errorf("timer limit hit %d times, want 0", hits.Timers)
	}
}

// TestTimerSlotsBalancedAcrossReap: a thread joined while its futex
// timer is pending keeps the timer slot until that timer fires, and its
// storage is not reused before then, so the late fire releases the dead
// thread's slot, never a successor's. Here the successor holds one
// pending timer across the late fire, so under MaxTimers 1 it must be
// refused a second.
func TestTimerSlotsBalancedAcrossReap(t *testing.T) {
	e, k := newKernel(t)
	p := New(k, Config{Tick: -1, Limits: Limits{MaxTimers: 1}})
	p.Install()
	space := k.NewAddressSpace()
	var words [3]uint64
	for i := range words {
		w, err := space.Mmap(8, mem.ProtRead|mem.ProtWrite, "word", true, nil)
		if err != nil {
			t.Fatal(err)
		}
		words[i] = w
	}
	wakeWhenAsleep := func(task *Task, w uint64) {
		for k.FutexWaiters(space.ID, w) == 0 {
			task.Nanosleep(sim.Microsecond)
		}
		task.FutexWake(w, 1)
	}
	var first, second error
	root := k.NewTask("root", space, func(task *Task) int {
		a := task.Clone("a", kernel.PThreadFlags, func(c *Task) int {
			c.FutexWaitTimeout(words[0], 0, 100*sim.Microsecond)
			return 0
		})
		wakeWhenAsleep(task, words[0])
		task.Join(a) // a's timer stays pending until 100 µs
		b := task.Clone("b", kernel.PThreadFlags, func(c *Task) int {
			first = c.FutexWaitTimeout(words[1], 0, 500*sim.Microsecond)
			c.Nanosleep(100 * sim.Microsecond) // a's timer fires meanwhile
			second = c.FutexWaitTimeout(words[2], 0, 10*sim.Microsecond)
			return 0
		})
		wakeWhenAsleep(task, words[1])
		task.Join(b)
		return 0
	})
	k.Start(root, 0)
	if err := e.Run(); err != nil {
		t.Fatalf("engine: %v", err)
	}
	if first != nil {
		t.Errorf("b's first wait: %v, want its wake", first)
	}
	if !errors.Is(second, kernel.ErrTimerLimit) {
		t.Errorf("b's second timed wait, with its first timer pending: %v, want ErrTimerLimit", second)
	}
	if hits := p.LimitHits(); hits.Timers != 1 {
		t.Errorf("timer limit hit %d times, want 1", hits.Timers)
	}
}

func rootBody(t *testing.T, p *Plane, task *Task, a, b uint64, cloneErr, fdErr *error) int {
	// MaxFutexWaiters=1 per word: c1 parks on a, then c2's wait on a is
	// rejected and it parks on b instead — leaving both children LIVE,
	// which is what makes the MaxThreads=2 check below meaningful (an
	// exited child is uncounted the moment it exits).
	var waitErr error
	c1 := task.Clone("kid", kernel.PThreadFlags, func(c *Task) int {
		c.FutexWait(a, 0)
		return 0
	})
	task.Nanosleep(10 * sim.Microsecond) // c1 parked on a
	c2 := task.Clone("kid2", kernel.PThreadFlags, func(c *Task) int {
		waitErr = c.FutexWait(a, 0)
		c.FutexWait(b, 0)
		return 0
	})
	task.Nanosleep(10 * sim.Microsecond) // c2 bounced off a, parked on b
	if !errors.Is(waitErr, kernel.ErrFutexWaiterLimit) {
		t.Errorf("second waiter on a: %v, want ErrFutexWaiterLimit", waitErr)
	}
	if _, err := task.TryClone("kid3", kernel.PThreadFlags, func(c *Task) int { return 0 }); err == nil {
		t.Errorf("third clone admitted over MaxThreads=2")
	} else {
		*cloneErr = err
	}

	// MaxTimers=1 per task: while one timeout is armed, arming a second
	// on the same task must reject. One task cannot hold two futex
	// timeouts at once through the syscall surface, so exercise the
	// admission pair directly, then release the slot as a timer fire
	// would.
	if err := p.admit(task, probe.SiteFutexTimer, 0); err != nil {
		t.Errorf("first timer admission: %v", err)
	}
	if err := p.admit(task, probe.SiteFutexTimer, 0); !errors.Is(err, kernel.ErrTimerLimit) {
		t.Errorf("second timer admission: %v, want ErrTimerLimit", err)
	}
	p.timerFired(task) // release the armed slot

	// MaxFDs=2 per table.
	fd1, err := task.Open("/a", fs.OCreate|fs.ORdWr)
	if err != nil {
		t.Errorf("open 1: %v", err)
	}
	if _, err := task.Open("/b", fs.OCreate|fs.ORdWr); err != nil {
		t.Errorf("open 2: %v", err)
	}
	if _, err := task.Open("/c", fs.OCreate|fs.ORdWr); err == nil {
		t.Errorf("third open admitted over MaxFDs=2")
	} else {
		*fdErr = err
	}
	task.Close(fd1)
	if _, err := task.Open("/c", fs.OCreate|fs.ORdWr); err != nil {
		t.Errorf("open after close: %v (closed fd not released from the cap?)", err)
	}

	task.FutexWake(a, 1)
	task.FutexWake(b, 1)
	task.Join(c1)
	task.Join(c2)
	return 0
}

// TestRestarterBackoffAndQuarantine checks the budget arithmetic: backoff
// doubles from Base to Max with ±25% jitter, the window resets the
// failure count, and exhausting the budget quarantines permanently.
func TestRestarterBackoffAndQuarantine(t *testing.T) {
	_, k := newKernel(t)
	pol := RestartPolicy{Base: 100 * sim.Microsecond, Max: 800 * sim.Microsecond,
		Window: 10 * sim.Millisecond, Budget: 4}
	p := New(k, Config{Tick: -1, Restart: pol, Seed: 42})
	r := p.restarter("unit")
	now := sim.Time(0)
	wantCenters := []sim.Duration{100, 200, 400, 800} // µs; capped at Max
	for i, c := range wantCenters {
		center := c * sim.Microsecond
		d, ok := r.Next(now)
		if !ok {
			t.Fatalf("failure %d: quarantined inside the budget", i+1)
		}
		if lo, hi := center-center/4, center+center/4; d < lo || d > hi {
			t.Errorf("failure %d: backoff %v outside [%v, %v]", i+1, d, lo, hi)
		}
		now = now.Add(time100us())
	}
	if d, ok := r.Next(now); ok {
		t.Fatalf("failure 5 allowed (%v) over Budget=4", d)
	}
	if !r.Quarantined() {
		t.Error("restarter not quarantined after exhausting its budget")
	}
	if _, ok := r.Next(now.Add(1 * sim.Second)); ok {
		t.Error("quarantine lifted by time passing; must be permanent")
	}
	if got := p.Quarantines(); got != 1 {
		t.Errorf("plane counts %d quarantines, want 1", got)
	}
	if got := r.Allowed(); got != 4 {
		t.Errorf("restarter granted %d respawns, want 4", got)
	}

	// A fresh lane that fails slower than the window never escalates.
	s := p.restarter("slow")
	now = sim.Time(0)
	for i := 0; i < 20; i++ {
		d, ok := s.Next(now)
		if !ok {
			t.Fatalf("slow failure %d quarantined despite window resets", i+1)
		}
		if lo, hi := pol.Base-pol.Base/4, pol.Base+pol.Base/4; d < lo || d > hi {
			t.Errorf("slow failure %d: backoff %v not at Base (window did not reset)", i+1, d)
		}
		now = now.Add(pol.Window + 1*sim.Microsecond)
	}
}

func time100us() sim.Duration { return 100 * sim.Microsecond }

// TestRestarterDeterminism: same seed, same lane name → identical delay
// sequences; a different lane diverges.
func TestRestarterDeterminism(t *testing.T) {
	mk := func(seed uint64, lane string) []sim.Duration {
		_, k := newKernel(t)
		p := New(k, Config{Tick: -1, Seed: seed})
		r := p.restarter(lane)
		var ds []sim.Duration
		for i := 0; i < 5; i++ {
			d, ok := r.Next(sim.Time(0))
			if !ok {
				t.Fatal("quarantined inside default budget")
			}
			ds = append(ds, d)
		}
		return ds
	}
	a, b := mk(7, "kc.x"), mk(7, "kc.x")
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed+lane diverged at %d: %v vs %v", i, a, b)
		}
	}
	c := mk(7, "kc.y")
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Error("distinct lanes produced identical jitter sequences")
	}
}

// TestMetricsFollowKernelRegistry: the plane publishes its supervise.*
// counters into the kernel's metrics registry, so a harness that only
// calls SetMetrics sees the watchdog's work.
func TestMetricsFollowKernelRegistry(t *testing.T) {
	e, k := newKernel(t)
	reg := metrics.NewRegistry()
	k.SetMetrics(reg)
	New(k, Config{Tick: 100 * sim.Microsecond}).Install()
	root := k.NewTask("root", k.NewAddressSpace(), func(task *Task) int {
		task.Nanosleep(1 * sim.Millisecond)
		return 0
	})
	k.Start(root, 0)
	if err := e.Run(); err != nil {
		t.Fatalf("engine: %v", err)
	}
	if n := reg.Counter("supervise.ticks").Value(); n == 0 {
		t.Error("supervise.ticks = 0 in the kernel's registry, want the watchdog's ticks")
	}
}
