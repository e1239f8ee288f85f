// Package schedpolicy ships the stock scheduler policies for the
// pluggable dispatch plane, sched_ext-style: the kernel and the BLT
// runtime own the scheduling *mechanism* (run queues, charges, probes,
// accounting), while a Policy object supplies the *decisions* — core
// placement, ready-queue order, steal-victim order.
//
// One Policy implements both halves of the plane: kernel.SchedPolicy
// (kernel tasks and cores) and blt.ULTPolicy (decoupled UCs on
// scheduler BLTs). It is installed in one place, the kernel
// (Kernel.SetSchedPolicy; planes.Install from a spec): every BLT pool
// built on that kernel afterwards takes the ULT half when it is created.
// Instances are stateful and single-run: planes.Install parses a fresh
// one per simulation, so repeated runs of one seed stay byte-identical.
//
// Stock policies, selected by spec string (ulpsim/ulpbench
// -sched-policy):
//
//	fifo       — the identity policy: every hook declines, so the
//	             built-in FIFO dispatch runs. Byte-identical to no
//	             policy at all; CI pins that equivalence.
//	locality   — cache-warm placement: waking tasks return to their
//	             last core when idle; idle schedulers steal from the
//	             nearest loaded peer.
//	cosched    — gang dispatch: BLTs sharing one original KC host run
//	             back-to-back (the oversubscribe scenario's ranks).
//	tenant     — weighted stride scheduling over the probe plane's
//	             tenant identity (the original KC name, kc.<img>.<rank>);
//	             params: tenant:weights=kc.worker.0:4+kc.worker.1:2
package schedpolicy

import (
	"fmt"
	"strings"

	"repro/internal/blt"
	"repro/internal/kernel"
)

// Policy is a complete scheduling policy: the kernel dispatch half and
// the user-level (BLT scheduler) half of the plane.
type Policy interface {
	kernel.SchedPolicy
	blt.ULTPolicy
}

// New parses a policy spec ("name" or "name:params") and returns a
// fresh, single-run policy instance.
func New(spec string) (Policy, error) {
	name, params, _ := strings.Cut(spec, ":")
	switch name {
	case "fifo":
		if params != "" {
			return nil, fmt.Errorf("schedpolicy: fifo takes no parameters (got %q)", params)
		}
		return NewFIFO(), nil
	case "locality":
		if params != "" {
			return nil, fmt.Errorf("schedpolicy: locality takes no parameters (got %q)", params)
		}
		return NewLocality(), nil
	case "cosched":
		if params != "" {
			return nil, fmt.Errorf("schedpolicy: cosched takes no parameters (got %q)", params)
		}
		return NewCosched(), nil
	case "tenant":
		t, err := NewTenant(params)
		if err != nil {
			return nil, err // not a nil *Tenant inside a non-nil Policy
		}
		return t, nil
	}
	return nil, fmt.Errorf("schedpolicy: unknown policy %q (have %s)",
		name, strings.Join(Names(), ", "))
}

// Names lists the stock policy names in selection order.
func Names() []string { return []string{"fifo", "locality", "cosched", "tenant"} }

// base supplies declining defaults for every hook of both interfaces;
// each stock policy embeds it and overrides only the decisions it makes.
type base struct{ name string }

func (b base) Name() string                                     { return b.name }
func (base) PickCore(*kernel.Kernel, *kernel.Task) *kernel.Core { return nil }
func (base) PickReady(*blt.Scheduler) int                       { return 0 }
func (base) StealOrder(*blt.Scheduler, []int) []int             { return nil }
func (base) OnIdle(*blt.Scheduler)                              {}
