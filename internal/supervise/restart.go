package supervise

import "repro/internal/sim"

// Restart budgets: seeded, jittered exponential backoff with a
// failure budget.
const (
	// RestartBase is the backoff after the first failure in a window;
	// each further failure doubles it up to RestartMax.
	RestartBase = 50 * sim.Microsecond
	// RestartMax caps the backoff.
	RestartMax = 5 * sim.Millisecond
	// RestartWindow is the sliding failure window: a failure more than
	// RestartWindow after the window opened resets the count (the entity
	// proved it can run, so its budget refills).
	RestartWindow = 10 * sim.Millisecond
	// RestartBudget is how many failures one window tolerates; exceeding
	// it quarantines the entity (no further restarts).
	RestartBudget = 8
)

// Restarter is one entity's restart budget (an AIO helper, a KC host),
// consulted at task:restart. Deterministic: the jitter RNG lane is
// derived from the plane seed and the entity name, so equal seeds make
// equal respawn decisions.
type Restarter struct {
	plane *Plane
	rng   *sim.RNG
	name  string

	failures    int
	windowStart sim.Time
	quarantined bool
}

// restarter returns the named entity's restart budget, creating it on
// first use.
func (p *Plane) restarter(name string) *Restarter {
	if r := p.restarts[name]; r != nil {
		return r
	}
	r := &Restarter{
		plane: p,
		rng:   sim.NewRNG(sim.SplitMix(p.cfg.Seed, fnv64(name))),
		name:  name,
	}
	p.restarts[name] = r
	return r
}

// Next records one failure at virtual time now and answers whether a
// respawn is allowed — and if so, after what backoff delay. Once the
// budget is exhausted within the window the entity is quarantined and
// every later call returns false.
func (r *Restarter) Next(now sim.Time) (delay sim.Duration, ok bool) {
	if r.quarantined {
		return 0, false
	}
	if r.failures > 0 && now.Sub(r.windowStart) > RestartWindow {
		r.failures = 0
	}
	if r.failures == 0 {
		r.windowStart = now
	}
	r.failures++
	if r.failures > RestartBudget {
		r.quarantined = true
		r.plane.quarantines++
		if r.plane.mQuarantines != nil {
			r.plane.mQuarantines.Inc()
		}
		if tr := r.plane.e.Tracer(); tr != nil {
			tr.Add(now, "supervise", "quarantine: %s exhausted its restart budget (%d failures in %v)",
				r.name, r.failures-1, RestartWindow)
		}
		return 0, false
	}
	d := RestartBase
	for i := 1; i < r.failures && d < RestartMax; i++ {
		d *= 2
	}
	if d > RestartMax {
		d = RestartMax
	}
	// Jitter ±25% so respawns of distinct entities decorrelate.
	delay = r.rng.Duration(d-d/4, d+d/4)
	if r.plane.mRestarts != nil {
		r.plane.mRestarts.Inc()
	}
	return delay, true
}

// fnv64 hashes a name to a seed lane (FNV-1a).
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
