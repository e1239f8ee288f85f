package schedpolicy

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/blt"
)

// strideUnit is the stride numerator: a tenant of weight w advances its
// pass by strideUnit/w per dispatch, so double the weight means half
// the pass growth and twice the dispatch share.
const strideUnit = 1 << 20

// Tenant is deterministic weighted stride scheduling over the probe
// plane's tenant identity — the original KC's name (kc.<image>.<rank>,
// e.g. kc.worker.0). Each tenant carries a pass value; PickReady runs
// the queued BLT whose tenant has the lowest pass (ties to FIFO order)
// and advances that tenant's pass by strideUnit/weight.
//
// Weights trade latency against throughput per tenant: a heavy tenant's
// BLTs jump the queue (lower dispatch latency, larger core share) while
// weight-1 tenants share the remainder throughput-fairly. Unlisted
// tenants default to weight 1, so "tenant" with no params is pure
// stride-fair round-robin over tenants.
//
// Spec: tenant[:weights=<kc-name>:<weight>[+<kc-name>:<weight>...]]
// ('+' separates entries because ',' and ';' already delimit flag lists
// and probe specs), each weight from 1 to strideUnit. Example:
// tenant:weights=kc.worker.0:4+kc.worker.1:2
type Tenant struct {
	base
	weights map[string]uint64
	pass    map[string]uint64
}

// NewTenant parses the weight table and returns a fresh tenant policy
// (per-run state: pass values start at zero).
func NewTenant(params string) (*Tenant, error) {
	t := &Tenant{
		base:    base{"tenant"},
		weights: make(map[string]uint64),
		pass:    make(map[string]uint64),
	}
	if params == "" {
		return t, nil
	}
	key, list, ok := strings.Cut(params, "=")
	if !ok || key != "weights" {
		return nil, fmt.Errorf("schedpolicy: tenant params must be weights=<name>:<w>[+...] (got %q)", params)
	}
	for _, ent := range strings.Split(list, "+") {
		name, ws, ok := strings.Cut(ent, ":")
		if !ok || name == "" {
			return nil, fmt.Errorf("schedpolicy: bad tenant weight entry %q", ent)
		}
		// A weight above strideUnit would advance its tenant's pass by
		// zero, so that tenant would win every pick.
		w, err := strconv.ParseUint(ws, 10, 32)
		if err != nil || w == 0 || w > strideUnit {
			return nil, fmt.Errorf("schedpolicy: bad tenant weight %q (want an integer from 1 to %d)", ent, strideUnit)
		}
		t.weights[name] = w
	}
	return t, nil
}

// PickReady returns the queued BLT whose tenant has the lowest pass
// value (FIFO order breaks ties) and advances that tenant's stride.
func (t *Tenant) PickReady(s *blt.Scheduler) int {
	best := 0
	bestPass := t.pass[s.ReadyAt(0).KC().Name()]
	for i, n := 1, s.QueueLen(); i < n; i++ {
		if p := t.pass[s.ReadyAt(i).KC().Name()]; p < bestPass {
			best, bestPass = i, p
		}
	}
	key := s.ReadyAt(best).KC().Name()
	w := t.weights[key]
	if w == 0 {
		w = 1
	}
	t.pass[key] = bestPass + strideUnit/w
	return best
}
