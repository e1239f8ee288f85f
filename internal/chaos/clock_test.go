package chaos_test

import (
	"context"
	"os"
	"os/exec"
	"regexp"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/blt"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/fault"
)

// pastClockFaults saturate one fs_slow factor and scale it again, so an
// open's delay carries the virtual clock past its range.
const pastClockFaults = "fs_slow:factor=4e18;fs_slow:factor=3;open:prob=0.1"

// TestFaultPastClockEndsRun: the run `ulpsim -chaos -seed 3 -faults
// '<pastClockFaults>'` makes ends at once with a panic that names the
// proc whose charge overflows the clock and the due time. The clock
// used to wrap there, and idle KCs busy-polled through the wrapped time
// with no output. The panic ends the process, so the run happens in a
// child process.
func TestFaultPastClockEndsRun(t *testing.T) {
	if os.Getenv("CHAOS_PAST_CLOCK_CHILD") != "" {
		specs, err := fault.ParseSpecs(pastClockFaults)
		if err != nil {
			t.Fatal(err)
		}
		// ulpsim's defaults for -chaos.
		chaos.Run(chaos.Config{Machine: arch.Wallaby(), Seed: 3, Specs: specs,
			ULPs: 4, Ops: 8, Idle: blt.BusyWait, SigMode: core.FcontextMode})
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^TestFaultPastClockEndsRun$")
	cmd.Env = append(os.Environ(), "CHAOS_PAST_CLOCK_CHILD=1")
	out, err := cmd.CombinedOutput()
	if ctx.Err() != nil {
		t.Fatal("the run did not end within 20 s")
	}
	if err == nil {
		t.Fatalf("the run ended cleanly:\n%s", out)
	}
	want := regexp.MustCompile(`panic: sim: proc kc\.\S+ Advance: due time \S+ \+ \S+ is past the end of virtual time`)
	if !want.Match(out) {
		t.Errorf("the run failed without the due-time panic:\n%.2000s", out)
	}
}
