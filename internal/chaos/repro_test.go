package chaos_test

import (
	"strings"
	"testing"

	"repro/internal/chaos"
)

// TestReproCommandFillsDefaults: the repro of a config that leaves the
// machine, ULP and op counts zero names the run those defaults make,
// Wallaby with 6 ULPs of 24 ops. It used to dereference the nil
// machine.
func TestReproCommandFillsDefaults(t *testing.T) {
	got := chaos.ReproCommand(chaos.Config{Seed: 1})
	for _, want := range []string{"-machine Wallaby ", "-ulps 6 ", "-ops 24 ", "-seed 1 "} {
		if !strings.Contains(got, want) {
			t.Errorf("repro %q lacks %q", got, want)
		}
	}
}
