package sync_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/sim"
	usync "repro/internal/sync"
)

func newKernel(t *testing.T) (*sim.Engine, *kernel.Kernel) {
	t.Helper()
	e := sim.New()
	return e, kernel.New(e, arch.Wallaby())
}

// hammer runs sync.Hammer on k over the lock mk builds, with tasks
// threads pinned round-robin onto the first cores cores (cores < tasks
// oversubscribes, forcing spinner yields to matter), and returns its
// verdict.
func hammer(t *testing.T, e *sim.Engine, k *kernel.Kernel, mk func(root *kernel.Task) usync.Lock,
	tasks, ops, cores int) error {
	t.Helper()
	var err error
	root := k.NewTask("root", k.NewAddressSpace(), func(rt *kernel.Task) int {
		err = usync.Hammer(rt, mk(rt), tasks, cores, ops)
		return 0
	})
	k.Start(root, 0)
	if rerr := e.Run(); rerr != nil {
		t.Fatalf("run: %v", rerr)
	}
	return err
}

// nopLock excludes nothing.
type nopLock struct{}

func (nopLock) Name() string                { return "nop" }
func (nopLock) Lock(*kernel.Task)           {}
func (nopLock) Unlock(*kernel.Task)         {}
func (nopLock) SetFairness(*usync.Fairness) {}

// TestHammerCatchesLostIncrements: the hammer's counter check fails a
// lock that excludes nothing once its threads run on two cores.
func TestHammerCatchesLostIncrements(t *testing.T) {
	e, k := newKernel(t)
	err := hammer(t, e, k, func(*kernel.Task) usync.Lock { return nopLock{} }, 2, 4, 2)
	if err == nil || !strings.Contains(err.Error(), "mutual exclusion violated") {
		t.Fatalf("hammer over no lock: err = %v, want a lost increment", err)
	}
}

// TestMutualExclusion drives every algorithm with more contenders than
// cores: lost updates on the racy counter expose any exclusion hole,
// and a missing spin-yield would hang the (non-preemptive) run.
func TestMutualExclusion(t *testing.T) {
	const tasks, ops, cores = 8, 25, 2
	for _, name := range usync.Names() {
		t.Run(name, func(t *testing.T) {
			e, k := newKernel(t)
			if err := hammer(t, e, k, func(rt *kernel.Task) usync.Lock {
				l, err := usync.New(rt, name, usync.Config{})
				if err != nil {
					t.Fatalf("New(%s): %v", name, err)
				}
				return l
			}, tasks, ops, cores); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		})
	}
}

// TestFairness runs the fairness recorder under every algorithm: the
// FIFO locks must hand off exactly in queueing order; the unfair locks
// must still acquire every recorded arrival (no starvation) within a
// generous bypass bound.
func TestFairness(t *testing.T) {
	const tasks, ops, cores = 6, 20, 3
	for _, name := range usync.Names() {
		t.Run(name, func(t *testing.T) {
			e, k := newKernel(t)
			var fair usync.Fairness
			if err := hammer(t, e, k, func(rt *kernel.Task) usync.Lock {
				l, err := usync.New(rt, name, usync.Config{})
				if err != nil {
					t.Fatalf("New(%s): %v", name, err)
				}
				l.SetFairness(&fair)
				return l
			}, tasks, ops, cores); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got, want := fair.Acquisitions(), tasks*ops; got != want {
				t.Fatalf("%s: recorded %d acquisitions, want %d", name, got, want)
			}
			if err := fair.Check(usync.FIFO(name), 3*tasks*ops); err != nil {
				t.Fatalf("%s: fairness: %v", name, err)
			}
		})
	}
}

// TestMetrics checks the lock feeds the kernel's metrics registry: the
// acquisition counter is exact and the latency histogram saw every
// acquisition.
func TestMetrics(t *testing.T) {
	const tasks, ops, cores = 4, 10, 2
	e, k := newKernel(t)
	reg := metrics.NewRegistry()
	k.SetMetrics(reg)
	if err := hammer(t, e, k, func(rt *kernel.Task) usync.Lock {
		l, err := usync.New(rt, "ticket", usync.Config{})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		return l
	}, tasks, ops, cores); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("sync.ticket.acquisitions").Value(); got != uint64(tasks*ops) {
		t.Fatalf("acquisitions counter = %d, want %d", got, tasks*ops)
	}
	if got := reg.Histogram("sync.ticket.acquire_ps").Count(); got != uint64(tasks*ops) {
		t.Fatalf("latency histogram count = %d, want %d", got, tasks*ops)
	}
	if reg.Counter("sync.ticket.contended").Value() == 0 {
		t.Fatalf("contended counter = 0 under %d tasks on %d cores", tasks, cores)
	}
}

// TestCondSignal is the classic bounded handoff: consumers wait on a
// predicate, a producer flips it under the mutex and signals once per
// consumer.
func TestCondSignal(t *testing.T) {
	e, k := newKernel(t)
	const consumers = 3
	var served int
	root := k.NewTask("root", k.NewAddressSpace(), func(rt *kernel.Task) int {
		m, err := usync.NewMutex(rt, usync.Config{})
		if err != nil {
			t.Errorf("NewMutex: %v", err)
			return 1
		}
		cv, err := usync.NewCond(rt, m)
		if err != nil {
			t.Errorf("NewCond: %v", err)
			return 1
		}
		tokens := 0
		kids := make([]*kernel.Task, consumers)
		for i := range kids {
			kids[i] = rt.Clone(fmt.Sprintf("c%d", i), kernel.PThreadFlags, func(t *kernel.Task) int {
				m.Lock(t)
				for tokens == 0 {
					cv.Wait(t)
				}
				tokens--
				served++
				m.Unlock(t)
				return 0
			})
		}
		rt.Compute(10 * sim.Microsecond) // let the consumers park
		for i := 0; i < consumers; i++ {
			m.Lock(rt)
			tokens++
			cv.Signal(rt)
			m.Unlock(rt)
			rt.Compute(2 * sim.Microsecond)
		}
		for _, kid := range kids {
			rt.Join(kid)
		}
		return 0
	})
	k.Start(root, 0)
	if err := e.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if served != consumers {
		t.Fatalf("served=%d want %d", served, consumers)
	}
}

// TestCondBroadcastRequeues parks a crowd on the condvar and releases
// it with one Broadcast: everyone must resume, and all but one waiter
// must travel the FUTEX_CMP_REQUEUE path onto the mutex word rather
// than being woken into a thundering herd.
func TestCondBroadcastRequeues(t *testing.T) {
	e, k := newKernel(t)
	const waiters = 5
	var resumed int
	root := k.NewTask("root", k.NewAddressSpace(), func(rt *kernel.Task) int {
		m, err := usync.NewMutex(rt, usync.Config{})
		if err != nil {
			t.Errorf("NewMutex: %v", err)
			return 1
		}
		cv, err := usync.NewCond(rt, m)
		if err != nil {
			t.Errorf("NewCond: %v", err)
			return 1
		}
		go_ := false
		kids := make([]*kernel.Task, waiters)
		for i := range kids {
			kids[i] = rt.Clone(fmt.Sprintf("w%d", i), kernel.PThreadFlags, func(t *kernel.Task) int {
				m.Lock(t)
				for !go_ {
					cv.Wait(t)
				}
				resumed++
				m.Unlock(t)
				return 0
			})
		}
		rt.Compute(10 * sim.Microsecond) // let every waiter park on the seq word
		m.Lock(rt)
		go_ = true
		cv.Broadcast(rt)
		m.Unlock(rt)
		for _, kid := range kids {
			rt.Join(kid)
		}
		return 0
	})
	k.Start(root, 0)
	if err := e.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if resumed != waiters {
		t.Fatalf("resumed=%d want %d", resumed, waiters)
	}
	st := k.FutexStats()
	if want := uint64(waiters - 1); st.Requeued != want {
		t.Fatalf("Requeued=%d want %d (broadcast must transfer all but one waiter): %+v",
			st.Requeued, want, st)
	}
	if st.Blocked != st.Resumed+st.Timeouts+st.Interrupted {
		t.Fatalf("sleep ledger not conserved: %+v", st)
	}
}

func TestUnknownLock(t *testing.T) {
	e, k := newKernel(t)
	var gotErr error
	root := k.NewTask("root", k.NewAddressSpace(), func(rt *kernel.Task) int {
		_, gotErr = usync.New(rt, "peterson", usync.Config{})
		return 0
	})
	k.Start(root, 0)
	if err := e.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if gotErr == nil {
		t.Fatalf("New(peterson) succeeded, want error")
	}
}

// TestFairnessCheck exercises the oracle itself on synthetic histories.
func TestFairnessCheck(t *testing.T) {
	mk := func(arrivals, acquires []int) *usync.Fairness {
		var f usync.Fairness
		f.Load(arrivals, acquires)
		return &f
	}
	if err := mk([]int{1, 2, 3}, []int{1, 2, 3}).Check(true, 0); err != nil {
		t.Fatalf("in-order FIFO flagged: %v", err)
	}
	if err := mk([]int{1, 2}, []int{2, 1}).Check(true, 0); err == nil {
		t.Fatalf("FIFO violation not flagged")
	}
	if err := mk([]int{1, 2}, []int{2, 1}).Check(false, 1); err != nil {
		t.Fatalf("single bypass within bound flagged: %v", err)
	}
	if err := mk([]int{1, 2, 2, 2}, []int{2, 2, 2, 1}).Check(false, 2); err == nil {
		t.Fatalf("unbounded bypass not flagged")
	}
	if err := mk([]int{1, 2}, []int{2}).Check(false, 10); err == nil {
		t.Fatalf("starved waiter (arrival without acquisition) not flagged")
	}
	if !errors.Is(mk([]int{1}, []int{1}).Check(true, 0), nil) {
		t.Fatalf("trivial history flagged")
	}
}
