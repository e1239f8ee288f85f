package explore

// Explorer coverage for the pluggable scheduler plane: every stock
// policy must (a) leave the invariant oracles intact on every stock
// scenario — the whole point of routing policies through the explorer —
// and (b) produce a deterministic decision trace. The fifo policy
// additionally must leave the decision trace byte-identical to the
// policy-off run on both machines under both idle policies, pinning the
// tentpole's "policy-off path unchanged" contract at the schedule level.

import (
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/blt"
)

// TestPoliciesPassOraclesOnStockScenarios replays the default schedule
// and a seeded random exploration of every scenario under every stock
// policy: the verdict (oracle pass/fail) must match the bare run's, and
// repeated replays must produce identical decision traces.
func TestPoliciesPassOraclesOnStockScenarios(t *testing.T) {
	specs := []string{"fifo", "locality", "cosched", "tenant", "tenant:weights=kc.u0.0:3"}
	for _, name := range ScenarioNames() {
		bare, err := ByName(name, arch.Wallaby, blt.BusyWait)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		_, bareErr := Replay(bare, nil)
		bareRes := Explore(bare, Config{Policy: RandomWalk, Runs: 4, Seed: 0xd16e57})
		for _, spec := range specs {
			s := bare
			s.Planes.Policy = spec
			ds1, err1 := Replay(s, nil)
			ds2, err2 := Replay(s, nil)
			if (err1 == nil) != (bareErr == nil) {
				t.Errorf("%s under %s: verdict changed: bare %v, policy %v", name, spec, bareErr, err1)
			}
			if (err1 == nil) != (err2 == nil) || !reflect.DeepEqual(ds1, ds2) {
				t.Errorf("%s under %s: repeated replays diverge:\n  %v (%v)\n  %v (%v)",
					name, spec, ds1, err1, ds2, err2)
			}
			if len(ds1) == 0 {
				t.Errorf("%s under %s: no decision points recorded", name, spec)
			}
			res := Explore(s, Config{Policy: RandomWalk, Runs: 4, Seed: 0xd16e57})
			if (res.Failure == nil) != (bareRes.Failure == nil) {
				t.Errorf("%s under %s: exploration verdict changed: bare failure=%v, policy failure=%v",
					name, spec, bareRes.Failure, res.Failure)
			}
		}
	}
}

// TestFIFOPolicyTraceByteIdentical pins the identity contract at its
// strongest observation point: the explorer's decision trace — every
// same-instant tie the engine ever resolved — must be byte-identical
// with the fifo policy installed, over both machines and both idle
// policies.
func TestFIFOPolicyTraceByteIdentical(t *testing.T) {
	for _, mk := range []func() *arch.Machine{arch.Wallaby, arch.Albireo} {
		for _, idle := range []blt.IdlePolicy{blt.BusyWait, blt.Blocking} {
			for _, name := range ScenarioNames() {
				s, err := ByName(name, mk, idle)
				if err != nil {
					t.Fatalf("ByName(%q): %v", name, err)
				}
				bare, bareErr := Replay(s, nil)
				s.Planes.Policy = "fifo"
				fifo, fifoErr := Replay(s, nil)
				if (bareErr == nil) != (fifoErr == nil) ||
					(bareErr != nil && bareErr.Error() != fifoErr.Error()) {
					t.Errorf("%s/%s/%s: fifo changed the verdict: bare %v, fifo %v",
						mk().Name, idle, name, bareErr, fifoErr)
				}
				if !reflect.DeepEqual(bare, fifo) {
					t.Errorf("%s/%s/%s: fifo perturbed the decision trace:\n  bare: %v\n  fifo: %v",
						mk().Name, idle, name, bare, fifo)
				}
			}
		}
	}
}
