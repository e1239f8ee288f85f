package arch

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestTableIIIPrimitives(t *testing.T) {
	// The primitive costs must reproduce the paper's Table III exactly.
	w := Wallaby()
	if got := w.Costs.UserCtxSwap.Nanoseconds(); got != 33.4 {
		t.Errorf("Wallaby ctxsw = %vns, want 33.4", got)
	}
	if got := w.Costs.TLSLoad.Nanoseconds(); got != 109.0 {
		t.Errorf("Wallaby TLS load = %vns, want 109", got)
	}
	a := Albireo()
	if got := a.Costs.UserCtxSwap.Nanoseconds(); got != 24.5 {
		t.Errorf("Albireo ctxsw = %vns, want 24.5", got)
	}
	if got := a.Costs.TLSLoad.Nanoseconds(); got != 2.5 {
		t.Errorf("Albireo TLS load = %vns, want 2.5", got)
	}
}

func TestCycleConversion(t *testing.T) {
	w := Wallaby()
	// Paper: 33.4 ns at 2.6 GHz ~ 86 cycles.
	cyc := w.Cycles(w.Costs.UserCtxSwap)
	if cyc < 85 || cyc > 88 {
		t.Errorf("ctxsw cycles = %v, want ~86", cyc)
	}
	cyc = w.Cycles(w.Costs.TLSLoad)
	if cyc < 280 || cyc > 288 {
		t.Errorf("TLS load cycles = %v, want ~284", cyc)
	}
}

func TestGetpidMatchesTableV(t *testing.T) {
	w := Wallaby()
	got := w.SyscallCost(w.Costs.GetPIDWork).Nanoseconds()
	if got < 66 || got > 68.5 {
		t.Errorf("Wallaby getpid = %vns, want ~67.1", got)
	}
	a := Albireo()
	got = a.SyscallCost(a.Costs.GetPIDWork).Nanoseconds()
	if got < 380 || got > 390 {
		t.Errorf("Albireo getpid = %vns, want ~385", got)
	}
}

func TestTLSAccessibilityAsymmetry(t *testing.T) {
	w, a := Wallaby(), Albireo()
	if w.TLSUserAccessible {
		t.Error("x86_64 TLS register must not be user accessible")
	}
	if !a.TLSUserAccessible {
		t.Error("AArch64 TLS register must be user accessible")
	}
	// The paper's central asymmetry: TLS load is >40x cheaper on ARM.
	if a.Costs.TLSLoad*40 > w.Costs.TLSLoad {
		t.Errorf("TLS asymmetry too small: wallaby=%v albireo=%v",
			w.Costs.TLSLoad, a.Costs.TLSLoad)
	}
}

func TestCoreCounts(t *testing.T) {
	if got := Wallaby().Cores(); got != 16 {
		t.Errorf("Wallaby cores = %d, want 16", got)
	}
	if got := Albireo().Cores(); got != 8 {
		t.Errorf("Albireo cores = %d, want 8", got)
	}
}

func TestWriteCostMonotonic(t *testing.T) {
	f := func(n uint16) bool {
		m := Wallaby()
		small := m.WriteCost(int(n), false)
		big := m.WriteCost(int(n)+1000, false)
		remote := m.WriteCost(int(n), true)
		return big > small && remote >= small
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRemotePenaltyLargerOnAlbireo(t *testing.T) {
	// Figure 7's Albireo crossover requires a larger remote-write
	// penalty on Albireo than on Wallaby.
	if Albireo().Costs.RemoteBytePenalty <= Wallaby().Costs.RemoteBytePenalty {
		t.Error("Albireo remote penalty must exceed Wallaby's")
	}
}

// TestByName: a machine name resolves in any case, to the model of
// that name.
func TestByName(t *testing.T) {
	for name, arch := range map[string]CPUArch{
		"Wallaby": X8664, "wallaby": X8664, "WALLABY": X8664,
		"Albireo": AArch64, "albireo": AArch64, "aLBIREO": AArch64,
	} {
		if m := ByName(name); m == nil || m.Arch != arch || !strings.EqualFold(m.Name, name) {
			t.Errorf("ByName(%q) = %v", name, m)
		}
	}
	for _, name := range []string{"nope", "", "wallaby "} {
		if m := ByName(name); m != nil {
			t.Errorf("ByName(%q) = %s, want nil", name, m.Name)
		}
	}
}

func TestArchString(t *testing.T) {
	if X8664.String() != "x86_64" || AArch64.String() != "aarch64" {
		t.Error("CPUArch.String wrong")
	}
}

func TestAllCostsPositive(t *testing.T) {
	for _, m := range Machines() {
		c := m.Costs
		durs := map[string]sim.Duration{
			"UserCtxSwap": c.UserCtxSwap, "TLSLoad": c.TLSLoad,
			"SyscallEntry": c.SyscallEntry, "GetPIDWork": c.GetPIDWork,
			"SchedYieldNoSwitch": c.SchedYieldNoSwitch, "KernelSwitch": c.KernelSwitch,
			"RunQueueOp": c.RunQueueOp, "AtomicOp": c.AtomicOp,
			"SpinNotice": c.SpinNotice, "FutexWakeCall": c.FutexWakeCall,
			"FutexWakeLatency": c.FutexWakeLatency, "FutexWaitCall": c.FutexWaitCall,
			"ThreadCreate": c.ThreadCreate, "CloneCost": c.CloneCost,
			"WaitCost": c.WaitCost, "ExitCost": c.ExitCost,
			"OpenCost": c.OpenCost, "CloseCost": c.CloseCost,
			"WriteBase": c.WriteBase, "ReadBase": c.ReadBase,
			"AIODispatch": c.AIODispatch, "AIOComplete": c.AIOComplete,
			"AIOReturnPoll": c.AIOReturnPoll, "MinorFault": c.MinorFault,
			"MajorFault": c.MajorFault, "TLBMissCost": c.TLBMissCost,
			"DlmopenBase": c.DlmopenBase, "DlmopenPerSym": c.DlmopenPerSym,
			"MmapCost": c.MmapCost, "SigmaskSwitch": c.SigmaskSwitch,
		}
		for name, d := range durs {
			if d <= 0 {
				t.Errorf("%s: %s is not positive", m.Name, name)
			}
		}
		if c.WriteBytePS <= 0 || c.MemCopyBytePS <= 0 || c.RemoteBytePenalty < 1 {
			t.Errorf("%s: byte costs invalid", m.Name)
		}
	}
}

func TestYieldCalibration(t *testing.T) {
	// ULP yield = ctx swap + TLS load + 2 run-queue ops should land near
	// the paper's Table IV "ULP-PiP yield" row (150 ns / 120 ns).
	w := Wallaby()
	y := w.Costs.UserCtxSwap + w.Costs.TLSLoad + 2*w.Costs.RunQueueOp
	if ns := y.Nanoseconds(); ns < 140 || ns > 160 {
		t.Errorf("Wallaby modeled yield = %vns, want ~150", ns)
	}
	a := Albireo()
	y = a.Costs.UserCtxSwap + a.Costs.TLSLoad + 2*a.Costs.RunQueueOp
	if ns := y.Nanoseconds(); ns < 110 || ns > 130 {
		t.Errorf("Albireo modeled yield = %vns, want ~120", ns)
	}
}
