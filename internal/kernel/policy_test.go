package kernel

// Tests for the SchedPolicy hook: a stub policy must actually be
// consulted by pickCore and its placement honoured, while the run queue
// it fills stays FIFO. Affinity-pinned tasks bypass the policy entirely.

import (
	"testing"

	"repro/internal/sim"
)

// stubPolicy forces every unpinned task onto one core, a placement the
// built-in dispatch would never make, so the test can tell the hook
// fired.
type stubPolicy struct {
	target int
	picks  int
}

func (p *stubPolicy) Name() string { return "stub" }

func (p *stubPolicy) PickCore(k *Kernel, t *Task) *Core {
	p.picks++
	return k.Core(p.target)
}

func TestSchedPolicyHooks(t *testing.T) {
	e, k := newKernel()
	pol := &stubPolicy{target: 2}
	k.SetSchedPolicy(pol)
	if k.SchedPolicy() != pol {
		t.Fatal("SchedPolicy() does not return the installed policy")
	}
	space := k.NewAddressSpace()

	var order []string
	mk := func(name string) *Task {
		return k.NewTask(name, space, func(task *Task) int {
			order = append(order, name)
			task.Charge(time1us)
			return 0
		})
	}
	a, b, c := mk("a"), mk("b"), mk("c")
	k.Start(a, 0)
	k.Start(b, 0)
	k.Start(c, 0)
	if err := e.Run(); err != nil {
		t.Fatalf("engine: %v", err)
	}

	// All three went through PickCore onto core 2; a dispatched first
	// (idle core), b and c queued behind it and ran in FIFO order.
	for _, task := range []*Task{a, b, c} {
		if task.LastCore() != pol.target {
			t.Errorf("task %s ran on core %d, want %d (PickCore ignored)", task.name, task.LastCore(), pol.target)
		}
	}
	if want := []string{"a", "b", "c"}; !equalStrings(order, want) {
		t.Errorf("run order %v, want FIFO %v", order, want)
	}
	if pol.picks < 3 {
		t.Errorf("PickCore consulted %d times, want >= 3", pol.picks)
	}
}

// TestSchedPolicyPinnedBypassesPolicy pins the precedence contract:
// affinity outranks the policy, which must not even be consulted for a
// pinned task's placement.
func TestSchedPolicyPinnedBypassesPolicy(t *testing.T) {
	e, k := newKernel()
	pol := &stubPolicy{target: 2}
	k.SetSchedPolicy(pol)
	space := k.NewAddressSpace()
	pinned := k.NewTask("pinned", space, func(task *Task) int {
		task.Charge(time1us)
		return 0
	})
	pinned.SetAffinity(1)
	k.Start(pinned, 0)
	if err := e.Run(); err != nil {
		t.Fatalf("engine: %v", err)
	}
	if pinned.LastCore() != 1 {
		t.Errorf("pinned task ran on core %d, want its affinity core 1", pinned.LastCore())
	}
	if pol.picks != 0 {
		t.Errorf("PickCore consulted %d times for a pinned task, want 0", pol.picks)
	}
}

const time1us = sim.Microsecond

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
