package ulppip_test

// Observability regression tests through the public facade: the metrics
// plane must be deterministic (same seed and configuration produce a
// byte-identical dump — the acceptance criterion of the metrics plane),
// and the Chrome trace export must emit valid trace-event JSON with
// per-core tracks carrying couple/decouple brackets and syscall spans.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	ulppip "repro"
)

// runObservable boots a 4-ULP workload (decouple, compute, bracketed
// open-write-close on the syscall cores, couple) with the given registry
// and tracer installed, and drives it to completion.
func runObservable(t *testing.T, reg *ulppip.MetricsRegistry, tr *ulppip.Tracer) {
	t.Helper()
	s := ulppip.NewSim(ulppip.Wallaby())
	if tr != nil {
		s.Engine.SetTracer(tr)
	}
	if reg != nil {
		s.Kernel.SetMetrics(reg)
	}
	prog := ulpProg("obs", func(envI interface{}) int {
		env := envI.(*ulppip.Env)
		env.Decouple()
		buf := make([]byte, 256)
		for i := 0; i < 4; i++ {
			env.Compute(2 * ulppip.Microsecond)
			env.Exec(func(kc *ulppip.Task) {
				fd, err := kc.Open(fmt.Sprintf("/obs%d", env.Rank), ulppip.OCreate|ulppip.OWrOnly|ulppip.OTrunc)
				if err != nil {
					panic(err)
				}
				kc.Write(fd, buf, true)
				kc.Close(fd)
			})
			env.Yield()
		}
		env.Couple()
		return 0
	})
	ulppip.Boot(s.Kernel, stdConfig(), func(rt *ulppip.Runtime) int {
		for i := 0; i < 4; i++ {
			if _, err := rt.Spawn(prog, ulppip.ULPSpawnOpts{Scheduler: -1}); err != nil {
				t.Error(err)
				return 1
			}
		}
		if _, err := rt.WaitAll(); err != nil {
			t.Error(err)
		}
		rt.Shutdown()
		return 0
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	s.Kernel.FinalizeMetrics()
}

func TestMetricsDumpDeterministic(t *testing.T) {
	var dumps [2]bytes.Buffer
	for i := range dumps {
		reg := ulppip.NewMetricsRegistry()
		runObservable(t, reg, nil)
		if err := reg.Dump(&dumps[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(dumps[0].Bytes(), dumps[1].Bytes()) {
		t.Errorf("same-seed metrics dumps differ:\n--- run 1 ---\n%s--- run 2 ---\n%s",
			dumps[0].String(), dumps[1].String())
	}
	for _, want := range []string{"kernel.syscalls", "blt.couple.ps", "blt.decouple.ps", "kernel.ctx_switch.klt"} {
		if !strings.Contains(dumps[0].String(), want) {
			t.Errorf("metrics dump missing %q", want)
		}
	}
}

func TestChromeTraceExport(t *testing.T) {
	tr := ulppip.NewTracer(1 << 16)
	runObservable(t, nil, tr)

	var buf bytes.Buffer
	if err := tr.DumpChrome(&buf, "Wallaby"); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string                 `json:"name"`
			Cat  string                 `json:"cat"`
			Ph   string                 `json:"ph"`
			Ts   float64                `json:"ts"`
			Dur  *float64               `json:"dur"`
			PID  int                    `json:"pid"`
			TID  int                    `json:"tid"`
			Args map[string]interface{} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("chrome export has no events")
	}

	coreTracks := map[int]bool{}
	var couples, coupleds, syscalls int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name == "thread_name" {
				coreTracks[ev.TID] = true
			}
		case "X":
			if ev.Dur == nil || *ev.Dur < 0 {
				t.Fatalf("span %q has no duration", ev.Name)
			}
			switch {
			case ev.Cat == "syscall":
				syscalls++
			case ev.Cat == "blt.span" && strings.HasPrefix(ev.Name, "couple "):
				couples++
			case ev.Cat == "blt.span" && strings.HasPrefix(ev.Name, "coupled "):
				coupleds++
			}
		case "i":
		default:
			t.Errorf("unexpected phase %q on %q", ev.Ph, ev.Name)
		}
	}
	if len(coreTracks) < 2 {
		t.Errorf("want per-core tracks, got %d thread_name records", len(coreTracks))
	}
	if couples == 0 || coupleds == 0 {
		t.Errorf("want couple/coupled spans, got couple=%d coupled=%d", couples, coupleds)
	}
	if syscalls == 0 {
		t.Error("want syscall spans, got none")
	}
}
