package ulppip_test

// Whole-stack soak: one simulated machine hosting four independent
// tenants at once on disjoint core partitions —
//
//   - an MPI world (4 ranks over ULPs) on cores 0-3,
//   - a ULP-PiP I/O workload on cores 4-7,
//   - plain kernel processes sharing memory on cores 8-9,
//   - a second ULP-PiP workload on cores 10-13 that optionally runs
//     under a task-scoped fault plane (the blast-radius tenant),
//
// all sharing the one kernel, physical memory and tmpfs. Everything must
// complete, stay consistent, and be deterministic — and when the fault
// plane is armed against tenant 4 only, the other three tenants'
// transcripts (statuses, file bytes, shared-memory bytes, completion
// times) must be byte-identical to the fault-free run: task-scoped specs
// have no blast radius outside their tenant.

import (
	"fmt"
	"testing"

	ulppip "repro"
)

// soakResult captures everything observable about one soak run.
type soakResult struct {
	tenants    string // tenants 1-3 transcript (must not see tenant-4 faults)
	tenant4    string // tenant 4 transcript (may differ under faults)
	injections uint64
	end        ulppip.Time
}

func TestMultiTenantSoak(t *testing.T) {
	r1 := runMultiTenant(t, nil)
	r2 := runMultiTenant(t, nil)
	if r1 != r2 {
		t.Errorf("soak nondeterministic:\n  run1: %+v\n  run2: %+v", r1, r2)
	}
}

// TestSoakFaultIsolation injects faults scoped to tenant 4's tasks only
// (its KCs by name prefix, its schedulers by core) and asserts the other
// three tenants' transcripts are byte-identical to the fault-free run.
func TestSoakFaultIsolation(t *testing.T) {
	base := runMultiTenant(t, nil)
	faulted := runMultiTenant(t, []ulppip.FaultSpec{
		{Site: ulppip.FaultWrite, Every: 2, Err: "eintr", TaskPrefix: "kc.t4"},
		{Site: ulppip.FaultOpen, Nth: 2, Err: "eagain", TaskPrefix: "kc.t4"},
		{Site: ulppip.FaultFutexLostWake, Prob: 0.4, TaskPrefix: "kc.t4"},
		{Site: ulppip.FaultSchedDelay, Every: 3, DelayUS: 25, TaskPrefix: "sched.c10"},
		{Site: ulppip.FaultSchedDelay, Every: 4, DelayUS: 25, TaskPrefix: "sched.c11"},
	})
	if faulted.injections == 0 {
		t.Fatal("no faults fired; the isolation claim went unexercised")
	}
	if base.tenants != faulted.tenants {
		t.Errorf("tenant-4 faults leaked into tenants 1-3:\n  fault-free: %s\n  faulted:    %s",
			base.tenants, faulted.tenants)
	}
	if base.tenant4 == faulted.tenant4 {
		t.Error("tenant 4 transcript unchanged under faults; injection had no effect")
	}
}

func runMultiTenant(t *testing.T, specs []ulppip.FaultSpec) soakResult {
	t.Helper()
	s := ulppip.NewSim(ulppip.Wallaby())
	k := s.Kernel
	var plane *ulppip.FaultPlane
	if specs != nil {
		plane = ulppip.NewFaultPlane(11, specs)
		plane.Attach(k.Probes())
	}

	// MPIRun drives engine.Run itself, so it must start last: the other
	// tenants only enqueue work here, then the MPI tenant's Run call
	// drives the whole machine.
	mpiDone := false

	// Tenant 2: ULP-PiP workload on cores 4-7.
	var t2Files string
	var t2End ulppip.Time
	prog := &ulppip.Image{
		Name: "tenant2", PIE: true, TextSize: 4096,
		Symbols: []ulppip.Symbol{{Name: "x", Size: 8}},
		Main: func(envI interface{}) int {
			env := envI.(*ulppip.Env)
			buf := make([]byte, 2048)
			for j := range buf {
				buf[j] = byte(env.Rank*7 + j)
			}
			env.Decouple()
			for i := 0; i < 4; i++ {
				env.Exec(func(kc *ulppip.Task) {
					fd, err := kc.Open(fmt.Sprintf("/t2.%d", env.Rank), ulppip.OCreate|ulppip.OWrOnly|ulppip.OTrunc)
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
		},
	}
	if _, err := ulppip.Boot(k, ulppip.Config{
		ProgCores:    []int{4, 5},
		SyscallCores: []int{6, 7},
		Idle:         ulppip.IdleBlocking,
		Audit:        true,
	}, func(rt *ulppip.Runtime) int {
		for i := 0; i < 6; i++ {
			if _, err := rt.Spawn(prog, ulppip.ULPSpawnOpts{Scheduler: -1}); err != nil {
				t.Errorf("tenant2 spawn: %v", err)
				return 1
			}
		}
		if _, err := rt.WaitAll(); err != nil {
			t.Errorf("tenant2 wait: %v", err)
		}
		if n := len(rt.Violations()); n != 0 {
			t.Errorf("tenant2 violations: %d", n)
		}
		// Read every file back: tenant 2's observable output bytes.
		root := rt.RootTask()
		data := make([]byte, 2048)
		for i := 0; i < 6; i++ {
			fd, err := root.Open(fmt.Sprintf("/t2.%d", i), ulppip.ORdOnly)
			if err != nil {
				t.Errorf("tenant2 readback %d: %v", i, err)
				continue
			}
			n, _ := root.Read(fd, data)
			root.Close(fd)
			t2Files += fmt.Sprintf("/t2.%d:%x;", i, data[:n])
		}
		t2End = s.Now()
		rt.Shutdown()
		return 0
	}); err != nil {
		t.Errorf("tenant2 boot: %v", err)
	}

	// Tenant 3: two plain processes pinned to cores 8-9 that move 64 KiB
	// through the address space they share, one chunk at a time, handed
	// over with two semaphores.
	var shmHash uint64
	shmTotal := 0
	var shmEnd ulppip.Time
	payload := make([]byte, 64*1024)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	const chunk = 8192
	space := k.NewAddressSpace()
	producer := k.NewTask("shm-writer", space, func(task *ulppip.Task) int {
		buf, err := task.Mmap(chunk, true)
		if err != nil {
			t.Errorf("tenant3 mmap: %v", err)
			return 1
		}
		empty, err := task.NewSemaphore(1)
		if err != nil {
			t.Errorf("tenant3 semaphore: %v", err)
			return 1
		}
		full, err := task.NewSemaphore(0)
		if err != nil {
			t.Errorf("tenant3 semaphore: %v", err)
			return 1
		}
		reader := k.NewTask("shm-reader", space, func(rt *ulppip.Task) int {
			data := make([]byte, chunk)
			for shmTotal < len(payload) {
				full.Wait(rt)
				rt.MemRead(buf, data)
				for _, b := range data {
					shmHash = shmHash*1099511628211 ^ uint64(b)
				}
				shmTotal += chunk
				empty.Post(rt)
			}
			shmEnd = s.Now()
			return 0
		})
		reader.SetAffinity(9)
		k.Start(reader, 0)
		for off := 0; off < len(payload); off += chunk {
			empty.Wait(task)
			task.MemWrite(buf, payload[off:off+chunk])
			full.Post(task)
		}
		return 0
	})
	producer.SetAffinity(8)
	k.Start(producer, 0)

	// Tenant 4: the blast-radius tenant on cores 10-13. Its ULPs are
	// named t4.* (so their KCs are kc.t4.*) and its schedulers sit on
	// cores 10-11 (sched.c10/sched.c11) — the names the fault specs
	// scope to. It uses the retrying Env wrappers, so injected EINTR and
	// EAGAIN are absorbed; its own transcript may shift under faults, the
	// other tenants' must not.
	var t4Statuses []int
	var t4End ulppip.Time
	prog4 := &ulppip.Image{
		Name: "tenant4", PIE: true, TextSize: 4096,
		Symbols: []ulppip.Symbol{{Name: "x", Size: 8}},
		Main: func(envI interface{}) int {
			env := envI.(*ulppip.Env)
			buf := make([]byte, 1024)
			for j := range buf {
				buf[j] = byte(env.Rank + j)
			}
			env.Decouple()
			for i := 0; i < 4; i++ {
				fd, err := env.Open(fmt.Sprintf("/t4.%d", env.Rank), ulppip.OCreate|ulppip.OWrOnly|ulppip.OTrunc)
				if err != nil {
					return 1
				}
				if _, err := env.Write(fd, buf); err != nil {
					return 2
				}
				if err := env.Close(fd); err != nil {
					return 3
				}
				env.Yield()
			}
			env.Couple()
			return 0
		},
	}
	if _, err := ulppip.Boot(k, ulppip.Config{
		ProgCores:    []int{10, 11},
		SyscallCores: []int{12, 13},
		Idle:         ulppip.IdleBlocking,
		Audit:        true,
	}, func(rt *ulppip.Runtime) int {
		for i := 0; i < 4; i++ {
			if _, err := rt.Spawn(prog4, ulppip.ULPSpawnOpts{
				Name: fmt.Sprintf("t4.%d", i), Scheduler: -1,
			}); err != nil {
				t.Errorf("tenant4 spawn: %v", err)
				return 1
			}
		}
		var err error
		t4Statuses, err = rt.WaitAll()
		if err != nil {
			t.Errorf("tenant4 wait: %v", err)
		}
		if n := len(rt.Violations()); n != 0 {
			t.Errorf("tenant4 violations: %d", n)
		}
		t4End = s.Now()
		rt.Shutdown()
		return 0
	}); err != nil {
		t.Errorf("tenant4 boot: %v", err)
	}

	// Tenant 1 last: MPIRun drives the engine for everyone.
	var mpiEnd ulppip.Time
	_, statuses, err2 := ulppip.MPIRun(k, ulppip.MPIConfig{
		ProgCores:    []int{0, 1},
		SyscallCores: []int{2, 3},
		Idle:         ulppip.IdleBusyWait,
	}, 4, func(r *ulppip.MPIRank) int {
		next := (r.Rank() + 1) % r.Size()
		prev := (r.Rank() + r.Size() - 1) % r.Size()
		for round := 0; round < 3; round++ {
			if err := r.Send(next, round, []byte{byte(r.Rank())}); err != nil {
				return 1
			}
			if _, _, _, err := r.Recv(prev, round); err != nil {
				return 2
			}
			out, err := r.Allreduce(ulppip.MPISum, []float64{1})
			if err != nil || out[0] != 4 {
				return 3
			}
		}
		mpiDone = true
		mpiEnd = s.Now()
		return 0
	})
	if err2 != nil {
		t.Fatalf("mpi: %v", err2)
	}
	for i, st := range statuses {
		if st != 0 {
			t.Errorf("rank %d status %d", i, st)
		}
	}
	for i, st := range t4Statuses {
		if st != 0 {
			t.Errorf("tenant4 ulp %d status %d", i, st)
		}
	}
	if !mpiDone || t2End == 0 || shmEnd == 0 || t4End == 0 {
		t.Errorf("tenants done: mpi=%v t2=%v shm=%v t4=%v", mpiDone, t2End, shmEnd, t4End)
	}
	if shmTotal != len(payload) {
		t.Errorf("tenant3 moved %d bytes, want %d", shmTotal, len(payload))
	}
	// Shared tmpfs saw tenant 2's and tenant 4's files.
	files := k.FS().List()
	if len(files) != 10 {
		t.Errorf("files = %v", files)
	}

	res := soakResult{
		tenants: fmt.Sprintf("mpi=%v end=%v | t2=%s end=%v | shm=%d:%x end=%v",
			statuses, mpiEnd, t2Files, t2End, shmTotal, shmHash, shmEnd),
		tenant4: fmt.Sprintf("statuses=%v end=%v", t4Statuses, t4End),
		end:     s.Now(),
	}
	if plane != nil {
		res.injections = plane.Injections()
	}
	return res
}
