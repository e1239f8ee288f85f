package kernel

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/arch"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// The fault-free syscall hot path must not allocate: with no registry
// installed sysEnter returns a zero stack frame after one nil check, and
// with metrics on the handles are resolved once and histograms update in
// place. These tests pin both properties, mirroring the engine-level
// alloc tests in internal/sim.
//
// The workload is a single resident task spinning on getpid: it never
// blocks, so the run measures only the per-syscall cost. (The dispatch
// path no longer allocates either — its accounting callback is prebuilt
// per core — but keeping it out of the loop keeps the pin single-cause.)

func syscallSpinner(reg *metrics.Registry) (*sim.Engine, func()) {
	e := sim.New()
	k := New(e, arch.Wallaby())
	if reg != nil {
		k.SetMetrics(reg)
	}
	task := k.NewTask("spinner", k.NewAddressSpace(), func(t *Task) int {
		for {
			t.Getpid()
			t.Compute(sim.Microsecond)
		}
	})
	k.Start(task, 0)
	next := e.Now()
	return e, func() {
		next = next.Add(100 * sim.Microsecond)
		if err := e.RunUntil(next); err != nil {
			panic(err)
		}
	}
}

func TestSyscallMetricsOffZeroAllocs(t *testing.T) {
	e, step := syscallSpinner(nil)
	step() // absorb one-time growth: initial dispatch, heap slice
	if got := testing.AllocsPerRun(50, step); got != 0 {
		t.Errorf("metrics-off getpid loop allocates %.1f per chunk, want 0", got)
	}
	e.Stop()
	e.Shutdown()
}

func TestSyscallMetricsOnZeroAllocs(t *testing.T) {
	e, step := syscallSpinner(metrics.NewRegistry())
	step() // warm-up also creates the getpid latency histogram
	if got := testing.AllocsPerRun(50, step); got != 0 {
		t.Errorf("metrics-on getpid loop allocates %.1f per chunk, want 0", got)
	}
	e.Stop()
	e.Shutdown()
}

// TestCloneJoinAllocs: a steady-state clone+join pair allocates
// nothing. The child reuses the Task, with its sim.Proc, that its
// predecessor's Join reaped. The Task is the proc's body, so no closure
// runs it. It runs on the runner its predecessor left idle, and its
// proc's name is formatted only when something prints it. Under the
// taskpoison tag no Task is reused, so each pair allocates its Task. A
// pair allocated 8 times before runners and names were recycled, and 3
// before Tasks were.
func TestCloneJoinAllocs(t *testing.T) {
	e := sim.New()
	k := New(e, arch.Wallaby())
	const warm, pairs = 64, 1000
	var allocs uint64
	root := k.NewTask("root", k.NewAddressSpace(), func(t *Task) int {
		body := func(*Task) int { return 0 }
		var ms runtime.MemStats
		for i := 0; i < warm+pairs; i++ {
			if i == warm {
				runtime.ReadMemStats(&ms)
				allocs = ms.Mallocs
			}
			t.Join(t.Clone("child", PThreadFlags, body))
		}
		runtime.ReadMemStats(&ms)
		allocs = ms.Mallocs - allocs
		return 0
	})
	k.Start(root, 0)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// slack absorbs one-time growth that lands in the window, such as a
	// map or heap resize.
	const slack = 16
	perPair := uint64(0)
	if taskPoison {
		perPair = 1
	}
	if allocs > perPair*pairs+slack {
		t.Errorf("%d clone+join pairs allocate %d times, want at most %d each", pairs, allocs, perPair)
	}
}

// TestTaskProcNamePin: a kernel task's proc reads "name/pidN#id", in
// Proc.String() and in Run's deadlock report alike, however late the
// name is formatted.
func TestTaskProcNamePin(t *testing.T) {
	e := sim.New()
	k := New(e, arch.Wallaby())
	var child *Task
	root := k.NewTask("root", k.NewAddressSpace(), func(t *Task) int {
		addr, err := t.Mmap(8, true)
		if err != nil {
			panic(err)
		}
		child = t.Clone("sleeper", PThreadFlags, func(c *Task) int {
			c.FutexWait(addr, 0)
			return 0
		})
		return t.Join(child)
	})
	k.Start(root, 0)
	err := e.Run()
	if got, want := child.proc.String(), "sleeper/pid2#2"; got != want {
		t.Errorf("child proc String() = %q, want %q", got, want)
	}
	if got, want := fmt.Sprint(err), sim.ErrDeadlock.Error()+": root/pid1#1, sleeper/pid2#2"; got != want {
		t.Errorf("Run = %q, want %q", got, want)
	}
	e.Shutdown()
}
