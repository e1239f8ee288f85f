package core

import (
	"fmt"
	"testing"

	"repro/internal/arch"
	"repro/internal/blt"
	"repro/internal/fs"
	"repro/internal/kernel"
	"repro/internal/loader"
	"repro/internal/sim"
)

// TestRandomizedULPSchedules drives many ULPs through pseudo-random
// operation sequences (yields, bracketed syscalls, raw syscalls, compute
// bursts, file I/O) under every machine/policy combination and checks
// the global invariants:
//
//   - every ULP terminates with its expected status;
//   - every bracketed getpid is consistent;
//   - the auditor flags exactly the raw (unbracketed) syscalls;
//   - the run is deterministic (same seed => same final virtual time).
func TestRandomizedULPSchedules(t *testing.T) {
	for _, m := range arch.Machines() {
		for _, idle := range []blt.IdlePolicy{blt.BusyWait, blt.Blocking} {
			m, idle := m, idle
			t.Run(fmt.Sprintf("%s/%s", m.Name, idle), func(t *testing.T) {
				end1, raw1 := runRandomSchedule(t, m, idle, 12345)
				end2, raw2 := runRandomSchedule(t, m, idle, 12345)
				if end1 != end2 || raw1 != raw2 {
					t.Errorf("nondeterministic: (%v,%d) vs (%v,%d)", end1, raw1, end2, raw2)
				}
				endOther, _ := runRandomSchedule(t, m, idle, 99)
				if endOther == end1 {
					t.Log("different seeds coincidentally matched; suspicious but not fatal")
				}
			})
		}
	}
}

func runRandomSchedule(t *testing.T, m *arch.Machine, idle blt.IdlePolicy, seed uint64) (sim.Time, int) {
	t.Helper()
	e := sim.New()
	k := kernel.New(e, m)
	const nULPs = 8
	const opsPerULP = 12

	// Pre-generate each ULP's op sequence so the body closures do not
	// consume randomness in scheduling-dependent order.
	master := sim.NewRNG(seed)
	plans := make([][]int, nULPs)
	expectedRaw := 0
	for i := range plans {
		plans[i] = make([]int, opsPerULP)
		for j := range plans[i] {
			op := master.Intn(6)
			plans[i][j] = op
			if op == 3 {
				expectedRaw++
			}
		}
	}

	inconsistent := 0
	prog := func(rank int) *loader.Image {
		return &loader.Image{
			Name: fmt.Sprintf("r%d", rank), PIE: true, TextSize: 4096,
			Symbols: []loader.Symbol{{Name: "x", Size: 8}},
			Main: func(envI interface{}) int {
				env := envI.(*Env)
				env.Decouple()
				myPID := env.KC().TGID()
				for _, op := range plans[rank] {
					switch op {
					case 0:
						env.Yield()
					case 1:
						if env.Getpid() != myPID {
							inconsistent++
						}
					case 2:
						env.Compute(sim.Duration(rank+1) * sim.Microsecond)
					case 3:
						env.GetpidRaw() // deliberate violation
					case 4:
						fd, err := env.Open(fmt.Sprintf("/f%d", rank), fs.OCreate|fs.OWrOnly|fs.OAppend)
						if err != nil {
							return 10
						}
						if _, err := env.Write(fd, []byte("abc")); err != nil {
							return 11
						}
						if err := env.Close(fd); err != nil {
							return 12
						}
					case 5:
						env.Couple()
						if env.Carrier().Getpid() != myPID {
							inconsistent++
						}
						env.Decouple()
					}
				}
				env.Couple()
				return rank + 100
			},
		}
	}

	var violations int
	Boot(k, Config{
		ProgCores:    []int{0, 1},
		SyscallCores: []int{2, 3},
		Idle:         idle,
		Audit:        true,
	}, func(rt *Runtime) int {
		for i := 0; i < nULPs; i++ {
			if _, err := rt.Spawn(prog(i), SpawnOpts{Scheduler: -1}); err != nil {
				t.Errorf("spawn %d: %v", i, err)
				return 1
			}
		}
		statuses, err := rt.WaitAll()
		if err != nil {
			t.Errorf("wait: %v", err)
		}
		for i, st := range statuses {
			if st != i+100 {
				t.Errorf("ULP %d status = %d, want %d", i, st, i+100)
			}
		}
		violations = len(rt.Violations())
		rt.Shutdown()
		return 0
	})
	if err := e.Run(); err != nil {
		t.Fatalf("engine: %v", err)
	}
	if inconsistent != 0 {
		t.Errorf("%d inconsistent bracketed getpids", inconsistent)
	}
	if violations != expectedRaw {
		t.Errorf("auditor saw %d violations, want %d (one per raw getpid)", violations, expectedRaw)
	}
	return e.Now(), violations
}

// TestManyULPsManySchedulers scales the deployment up: 32 ULPs over 4
// schedulers and 4 syscall cores, mixed M:N sharing.
func TestManyULPsManySchedulers(t *testing.T) {
	e := sim.New()
	k := kernel.New(e, arch.Wallaby())
	const n = 32
	completed := 0
	prog := &loader.Image{
		Name: "many", PIE: true, TextSize: 4096,
		Symbols: []loader.Symbol{{Name: "x", Size: 8}},
		Main: func(envI interface{}) int {
			env := envI.(*Env)
			env.Decouple()
			for i := 0; i < 4; i++ {
				env.Getpid()
				env.Yield()
			}
			completed++
			env.Couple()
			return 0
		},
	}
	// Primaries for the M:N mix must outlive the spawn phase, or their
	// KC terminates before the sharer is adopted (which Spawn rejects
	// with ErrHostDead). Hold them at a gate until all spawns are done.
	released := false
	holder := &loader.Image{
		Name: "holder", PIE: true, TextSize: 4096,
		Symbols: []loader.Symbol{{Name: "x", Size: 8}},
		Main: func(envI interface{}) int {
			env := envI.(*Env)
			env.Decouple()
			for !released {
				env.Yield()
			}
			completed++
			env.Couple()
			return 0
		},
	}
	Boot(k, Config{
		ProgCores:    []int{0, 1, 2, 3},
		SyscallCores: []int{4, 5, 6, 7},
		Idle:         blt.Blocking,
		Audit:        true,
	}, func(rt *Runtime) int {
		var prev *ULP
		for i := 0; i < n; i++ {
			opts := SpawnOpts{Scheduler: -1}
			img := prog
			// Every 4th pair: a held primary followed by a sharer of
			// its KC (M:N mix).
			if i%4 == 2 {
				img = holder
			}
			if i%4 == 3 && prev != nil {
				opts.ShareKCWith = prev
			}
			u, err := rt.Spawn(img, opts)
			if err != nil {
				t.Errorf("spawn %d: %v", i, err)
				return 1
			}
			prev = u
		}
		released = true
		if _, err := rt.WaitAll(); err != nil {
			t.Errorf("wait: %v", err)
		}
		if v := rt.Violations(); len(v) != 0 {
			t.Errorf("violations: %+v", v)
		}
		rt.Shutdown()
		return 0
	})
	if err := e.Run(); err != nil {
		t.Fatalf("engine: %v", err)
	}
	if completed != n {
		t.Errorf("completed = %d, want %d", completed, n)
	}
}
