package pip

import (
	"errors"
	"testing"

	"repro/internal/arch"
	"repro/internal/kernel"
	"repro/internal/loader"
	"repro/internal/sim"
)

func newKernel(m *arch.Machine) (*sim.Engine, *kernel.Kernel) {
	e := sim.New()
	return e, kernel.New(e, m)
}

func counterImage(name string) *loader.Image {
	return &loader.Image{
		Name:     name,
		PIE:      true,
		TextSize: 2 * 4096,
		Symbols: []loader.Symbol{
			{Name: "counter", Size: 8},
			{Name: "errno", Size: 8, TLS: true},
		},
		Main: func(envI interface{}) int {
			env := envI.(*Env)
			addr, err := env.SymbolAddr("counter")
			if err != nil {
				return 1
			}
			rank := env.Rank
			// Each process writes its rank+100 into its own counter.
			if err := env.Task().MemWrite(addr, []byte{byte(rank + 100)}); err != nil {
				return 2
			}
			return 0
		},
	}
}

func TestSpawnProcessModeAndWait(t *testing.T) {
	e, k := newKernel(arch.Wallaby())
	img := counterImage("prog")
	var exitStatuses []int
	Launch(k, "root", func(r *Root) int {
		for i := 0; i < 3; i++ {
			if _, err := r.Spawn(img, ProcessMode, nil); err != nil {
				t.Errorf("spawn %d: %v", i, err)
			}
		}
		for i := 0; i < 3; i++ {
			_, status, err := r.WaitAny()
			if err != nil {
				t.Errorf("wait: %v", err)
			}
			exitStatuses = append(exitStatuses, status)
		}
		return 0
	})
	if err := e.Run(); err != nil {
		t.Fatalf("engine: %v", err)
	}
	if len(exitStatuses) != 3 {
		t.Fatalf("reaped %d, want 3", len(exitStatuses))
	}
	for _, s := range exitStatuses {
		if s != 0 {
			t.Errorf("exit status %d, want 0", s)
		}
	}
}

func TestPiPTasksShareAddressSpaceWithPrivatizedVars(t *testing.T) {
	e, k := newKernel(arch.Wallaby())
	img := counterImage("prog")
	Launch(k, "root", func(r *Root) int {
		p0, _ := r.Spawn(img, ProcessMode, nil)
		p1, _ := r.Spawn(img, ProcessMode, nil)
		if p0.Task().Space() != r.Space() || p1.Task().Space() != r.Space() {
			t.Error("PiP tasks do not share the root's address space")
		}
		r.WaitAny()
		r.WaitAny()
		// Privatized: each process's "counter" is distinct and holds
		// that process's value; the root can read both directly.
		a0, _ := p0.Linked.SymbolAddr("counter")
		a1, _ := p1.Linked.SymbolAddr("counter")
		if a0 == a1 {
			t.Fatal("counter not privatized")
		}
		b := make([]byte, 1)
		r.Task().MemRead(a0, b)
		if b[0] != 100 {
			t.Errorf("proc0 counter = %d, want 100", b[0])
		}
		r.Task().MemRead(a1, b)
		if b[0] != 101 {
			t.Errorf("proc1 counter = %d, want 101", b[0])
		}
		return 0
	})
	if err := e.Run(); err != nil {
		t.Fatalf("engine: %v", err)
	}
}

func TestProcessModeKernelIdentity(t *testing.T) {
	e, k := newKernel(arch.Wallaby())
	pids := map[int]bool{}
	img := &loader.Image{
		Name: "ident", PIE: true, TextSize: 4096,
		Symbols: []loader.Symbol{{Name: "x", Size: 8}},
		Main: func(envI interface{}) int {
			env := envI.(*Env)
			pids[env.Task().Getpid()] = true
			return 0
		},
	}
	Launch(k, "root", func(r *Root) int {
		r.Spawn(img, ProcessMode, nil)
		r.Spawn(img, ProcessMode, nil)
		r.WaitAny()
		r.WaitAny()
		return 0
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(pids) != 2 {
		t.Errorf("process-mode tasks saw %d distinct pids, want 2", len(pids))
	}
}

func TestThreadModeKernelIdentity(t *testing.T) {
	e, k := newKernel(arch.Wallaby())
	pids := map[int]bool{}
	img := &loader.Image{
		Name: "ident", PIE: true, TextSize: 4096,
		Symbols: []loader.Symbol{{Name: "x", Size: 8}},
		Main: func(envI interface{}) int {
			env := envI.(*Env)
			pids[env.Task().Getpid()] = true
			return 0
		},
	}
	var rootPID int
	Launch(k, "root", func(r *Root) int {
		rootPID = r.Task().Getpid()
		p0, _ := r.Spawn(img, ThreadMode, nil)
		p1, _ := r.Spawn(img, ThreadMode, nil)
		p0.Join()
		p1.Join()
		return 0
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Thread mode: all PiP tasks share the root's PID, yet variable
	// privatization still held (they each wrote their own namespace).
	if len(pids) != 1 || !pids[rootPID] {
		t.Errorf("thread-mode pids = %v, want only root pid %d", pids, rootPID)
	}
}

func TestTLSBlocksPerProcess(t *testing.T) {
	e, k := newKernel(arch.Albireo())
	img := &loader.Image{
		Name: "tls", PIE: true, TextSize: 4096,
		Symbols: []loader.Symbol{{Name: "errno", Size: 8, TLS: true}},
		Main: func(envI interface{}) int {
			env := envI.(*Env)
			// The task's TLS register must point at this process's block.
			if env.Task().TLSReg() != env.TLSBase() {
				return 1
			}
			addr, err := env.TLSAddr("errno")
			if err != nil {
				return 2
			}
			if err := env.Task().MemWrite(addr, []byte{byte(env.Rank + 1)}); err != nil {
				return 3
			}
			return 0
		},
	}
	Launch(k, "root", func(r *Root) int {
		p0, _ := r.Spawn(img, ProcessMode, nil)
		p1, _ := r.Spawn(img, ProcessMode, nil)
		r.WaitAny()
		r.WaitAny()
		if p0.TLSBase() == p1.TLSBase() {
			t.Error("TLS blocks shared between processes")
		}
		b := make([]byte, 1)
		off := p0.Linked.TLS().Offsets["errno"]
		r.Task().MemRead(p0.TLSBase()+off, b)
		if b[0] != 1 {
			t.Errorf("proc0 TLS errno = %d, want 1", b[0])
		}
		r.Task().MemRead(p1.TLSBase()+off, b)
		if b[0] != 2 {
			t.Errorf("proc1 TLS errno = %d, want 2", b[0])
		}
		return 0
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestExportImport(t *testing.T) {
	e, k := newKernel(arch.Wallaby())
	producer := &loader.Image{
		Name: "producer", PIE: true, TextSize: 4096,
		Symbols: []loader.Symbol{{Name: "shared_buf", Size: 64}},
		Main: func(envI interface{}) int {
			env := envI.(*Env)
			addr, _ := env.SymbolAddr("shared_buf")
			env.Task().MemWrite(addr, []byte("pip-data"))
			if err := env.Export("buf", "shared_buf"); err != nil {
				return 1
			}
			return 0
		},
	}
	consumer := &loader.Image{
		Name: "consumer", PIE: true, TextSize: 4096,
		Symbols: []loader.Symbol{{Name: "x", Size: 8}},
		Main: func(envI interface{}) int {
			env := envI.(*Env)
			addr, err := env.Import("buf")
			if err != nil {
				return 1
			}
			b := make([]byte, 8)
			env.Task().MemRead(addr, b)
			if string(b) != "pip-data" {
				return 2
			}
			return 0
		},
	}
	Launch(k, "root", func(r *Root) int {
		r.Spawn(producer, ProcessMode, nil)
		_, s1, _ := r.WaitAny()
		r.Spawn(consumer, ProcessMode, nil)
		_, s2, _ := r.WaitAny()
		if s1 != 0 || s2 != 0 {
			t.Errorf("statuses = %d,%d", s1, s2)
		}
		return 0
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestImportMissing(t *testing.T) {
	e, k := newKernel(arch.Wallaby())
	img := &loader.Image{
		Name: "imp", PIE: true, TextSize: 4096,
		Symbols: []loader.Symbol{{Name: "x", Size: 8}},
		Main: func(envI interface{}) int {
			env := envI.(*Env)
			if _, err := env.Import("ghost"); !errors.Is(err, ErrNoExport) {
				return 1
			}
			return 0
		},
	}
	Launch(k, "root", func(r *Root) int {
		r.Spawn(img, ProcessMode, nil)
		_, s, _ := r.WaitAny()
		if s != 0 {
			t.Errorf("status = %d", s)
		}
		return 0
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSpawnArgDelivered(t *testing.T) {
	e, k := newKernel(arch.Wallaby())
	img := &loader.Image{
		Name: "argy", PIE: true, TextSize: 4096,
		Symbols: []loader.Symbol{{Name: "x", Size: 8}},
		Main: func(envI interface{}) int {
			return envI.(*Env).Arg.(int) * 2
		},
	}
	Launch(k, "root", func(r *Root) int {
		r.Spawn(img, ProcessMode, 21)
		_, s, _ := r.WaitAny()
		if s != 42 {
			t.Errorf("status = %d, want 42", s)
		}
		return 0
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestBarrierSynchronizesTasks(t *testing.T) {
	e, k := newKernel(arch.Wallaby())
	const parties = 4
	var bar *Barrier
	arrived := 0
	minSeen := parties * 10
	img := &loader.Image{
		Name: "bar", PIE: true, TextSize: 4096,
		Symbols: []loader.Symbol{{Name: "x", Size: 8}},
		Main: func(envI interface{}) int {
			env := envI.(*Env)
			env.Task().Nanosleep(sim.Duration(env.Rank+1) * sim.Microsecond)
			arrived++
			if err := bar.Wait(env.Task()); err != nil {
				t.Errorf("barrier: %v", err)
			}
			// After the barrier, everyone must have arrived.
			if arrived < minSeen {
				minSeen = arrived
			}
			return 0
		},
	}
	Launch(k, "root", func(r *Root) int {
		var err error
		bar, err = NewBarrier(r.Task(), parties)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < parties; i++ {
			r.Spawn(img, ProcessMode, nil)
		}
		for i := 0; i < parties; i++ {
			r.WaitAny()
		}
		return 0
	})
	if err := e.Run(); err != nil {
		t.Fatalf("engine: %v", err)
	}
	if minSeen != parties {
		t.Errorf("a task passed the barrier seeing only %d arrivals", minSeen)
	}
}

func TestSpawnLimit(t *testing.T) {
	e, k := newKernel(arch.Wallaby())
	img := &loader.Image{
		Name: "nop", PIE: true, TextSize: 4096,
		Symbols: []loader.Symbol{{Name: "x", Size: 8}},
		Main:    func(interface{}) int { return 0 },
	}
	Launch(k, "root", func(r *Root) int {
		for i := 0; i < MaxTasks; i++ {
			if _, err := r.Spawn(img, ProcessMode, nil); err != nil {
				t.Fatalf("spawn %d failed early: %v", i, err)
			}
		}
		if _, err := r.Spawn(img, ProcessMode, nil); !errors.Is(err, ErrTooManyTasks) {
			t.Errorf("err = %v, want ErrTooManyTasks", err)
		}
		for i := 0; i < MaxTasks; i++ {
			r.WaitAny()
		}
		return 0
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestNonPIESpawnFails(t *testing.T) {
	e, k := newKernel(arch.Wallaby())
	img := &loader.Image{
		Name: "static", PIE: false, TextSize: 4096,
		Symbols: []loader.Symbol{{Name: "x", Size: 8}},
		Main:    func(interface{}) int { return 0 },
	}
	Launch(k, "root", func(r *Root) int {
		if _, err := r.Spawn(img, ProcessMode, nil); !errors.Is(err, loader.ErrNotPIE) {
			t.Errorf("err = %v, want ErrNotPIE", err)
		}
		return 0
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestAccessorsAndJoinErrors(t *testing.T) {
	e, k := newKernel(arch.Wallaby())
	img := counterImage("acc")
	Launch(k, "root", func(r *Root) int {
		if r.Kernel() != k {
			t.Error("Kernel accessor")
		}
		if r.Loader() == nil {
			t.Error("Loader accessor")
		}
		p, err := r.Spawn(img, ProcessMode, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := r.Processes(); len(got) != 1 || got[0] != p {
			t.Errorf("Processes = %v", got)
		}
		if p.Task().Parent() != r.Task() {
			t.Error("process parent")
		}
		// Join on a process-mode task is an error.
		if _, err := p.Join(); err != ErrWrongMode {
			t.Errorf("Join on process mode: %v", err)
		}
		r.WaitAny()
		if ProcessMode.String() != "process" || ThreadMode.String() != "thread" {
			t.Error("Mode strings")
		}
		return 0
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestBarrierParties(t *testing.T) {
	e, k := newKernel(arch.Wallaby())
	Launch(k, "root", func(r *Root) int {
		b, err := NewBarrier(r.Task(), 0) // clamps to 1
		if err != nil {
			t.Fatal(err)
		}
		if b.Parties() != 1 {
			t.Errorf("Parties = %d, want 1", b.Parties())
		}
		// A 1-party barrier never blocks.
		if err := b.Wait(r.Task()); err != nil {
			t.Errorf("1-party barrier: %v", err)
		}
		return 0
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}
