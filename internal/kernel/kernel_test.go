package kernel

import (
	"errors"
	"testing"

	"repro/internal/arch"
	"repro/internal/fs"
	"repro/internal/probe"
	"repro/internal/sim"
)

func newKernel() (*sim.Engine, *Kernel) {
	e := sim.New()
	k := New(e, arch.Wallaby())
	return e, k
}

// countCalls counts entries into the named system-call with a program
// at syscall:enter.
func countCalls(k *Kernel, name string) *uint64 {
	n := new(uint64)
	k.Probes().Attach("count-"+name, func(c *probe.Ctx) probe.Verdict {
		if c.Site == name {
			*n++
		}
		return probe.Verdict{}
	}, probe.PSyscallEnter)
	return n
}

// runMain runs body as the initial task and drives the engine to
// completion.
func runMain(t *testing.T, k *Kernel, body TaskBody) {
	t.Helper()
	task := k.NewTask("main", k.NewAddressSpace(), body)
	k.Start(task, 0)
	if err := k.Engine().Run(); err != nil {
		t.Fatalf("engine: %v", err)
	}
}

func TestTaskRunsAndExits(t *testing.T) {
	_, k := newKernel()
	ran := false
	task := k.NewTask("main", k.NewAddressSpace(), func(t *Task) int {
		ran = true
		t.Charge(100 * sim.Nanosecond)
		return 7
	})
	k.Start(task, 0)
	if err := k.Engine().Run(); err != nil {
		t.Fatalf("engine: %v", err)
	}
	if !ran || !task.Exited() || task.ExitCode() != 7 {
		t.Errorf("ran=%v exited=%v code=%d", ran, task.Exited(), task.ExitCode())
	}
	if task.CPUTime() < 100*sim.Nanosecond {
		t.Errorf("CPUTime = %v, want >= 100ns", task.CPUTime())
	}
}

func TestGetpidCostMatchesTableV(t *testing.T) {
	e, k := newKernel()
	var elapsed sim.Duration
	runMain(t, k, func(task *Task) int {
		start := e.Now()
		if pid := task.Getpid(); pid != task.TGID() {
			t.Errorf("getpid = %d, want %d", pid, task.TGID())
		}
		elapsed = e.Now().Sub(start)
		return 0
	})
	// Paper Table V: Linux getpid on Wallaby = 6.71e-8 s.
	if ns := elapsed.Nanoseconds(); ns < 66 || ns > 69 {
		t.Errorf("getpid took %vns, want ~67.1", ns)
	}
}

func TestPiPProcessModeCloneSemantics(t *testing.T) {
	_, k := newKernel()
	runMain(t, k, func(parent *Task) int {
		var child *Task
		child = parent.Clone("pip-task", PiPProcessFlags, func(c *Task) int {
			if c.Getpid() == parent.TGID() {
				t.Error("PiP process-mode child shares parent PID")
			}
			if c.Space() != parent.Space() {
				t.Error("PiP process-mode child must share the address space")
			}
			if c.FDTable() == parent.FDTable() {
				t.Error("PiP process-mode child must have its own FD table")
			}
			return 42
		})
		pid, status, err := parent.Wait()
		if err != nil {
			t.Errorf("wait: %v", err)
		}
		if pid != child.PID() || status != 42 {
			t.Errorf("wait = (%d,%d), want (%d,42)", pid, status, child.PID())
		}
		return 0
	})
}

func TestPThreadModeCloneSemantics(t *testing.T) {
	_, k := newKernel()
	runMain(t, k, func(parent *Task) int {
		child := parent.Clone("thread", PThreadFlags, func(c *Task) int {
			if c.Getpid() != parent.TGID() {
				t.Error("thread must share the thread-group id (getpid)")
			}
			if c.Gettid() == parent.PID() {
				t.Error("thread must have its own tid")
			}
			if c.FDTable() != parent.FDTable() {
				t.Error("thread must share the FD table")
			}
			return 5
		})
		// Threads are not waitable; wait() must report no children.
		if _, _, err := parent.Wait(); !errors.Is(err, ErrNoChild) {
			t.Errorf("wait over thread children: err = %v, want ErrNoChild", err)
		}
		if status := parent.Join(child); status != 5 {
			t.Errorf("join = %d, want 5", status)
		}
		return 0
	})
}

func TestWaitBlocksUntilChildExit(t *testing.T) {
	e, k := newKernel()
	runMain(t, k, func(parent *Task) int {
		parent.Clone("slow-child", PiPProcessFlags, func(c *Task) int {
			c.Nanosleep(10 * sim.Microsecond)
			return 1
		})
		before := e.Now()
		_, status, err := parent.Wait()
		if err != nil || status != 1 {
			t.Errorf("wait = %d,%v", status, err)
		}
		if e.Now().Sub(before) < 10*sim.Microsecond {
			t.Error("wait returned before child exited")
		}
		return 0
	})
}

func TestSchedYieldTwoTasksOneCore(t *testing.T) {
	// Table IV, "sched_yield() on 1 core": two threads ping-pong via
	// yield; per-yield time must be SchedYieldNoSwitch + KernelSwitch.
	e, k := newKernel()
	const warm, measured = 50, 200
	var t0, t1 sim.Time
	done := false
	a := k.NewTask("a", k.NewAddressSpace(), func(task *Task) int {
		for i := 0; i < warm+measured; i++ {
			if i == warm {
				t0 = e.Now()
			}
			task.SchedYield()
		}
		t1 = e.Now()
		done = true
		return 0
	})
	b := k.NewTask("b", k.NewAddressSpace(), func(task *Task) int {
		for !done {
			task.SchedYield()
		}
		return 0
	})
	a.SetAffinity(3)
	b.SetAffinity(3)
	k.Start(a, 0)
	k.Start(b, 0)
	if err := e.Run(); err != nil {
		t.Fatalf("engine: %v", err)
	}
	// In the window, a did `measured` yields and b interleaved the same
	// number, all serialized on one core.
	perYield := float64(t1.Sub(t0)) / (2 * measured) / 1000 // ns
	// Paper: 266 ns on Wallaby. Allow slack for start/end asymmetry.
	if perYield < 250 || perYield > 285 {
		t.Errorf("per-yield = %vns, want ~266", perYield)
	}
}

func TestSchedYieldAloneIsCheap(t *testing.T) {
	// Table IV, "sched_yield() on 2 cores": a thread alone on its core
	// pays only the trap (77.9 ns on Wallaby).
	e, k := newKernel()
	var elapsed sim.Duration
	runMain(t, k, func(task *Task) int {
		start := e.Now()
		task.SchedYield()
		elapsed = e.Now().Sub(start)
		return 0
	})
	if ns := elapsed.Nanoseconds(); ns < 76 || ns > 80 {
		t.Errorf("lone sched_yield = %vns, want ~77.9", ns)
	}
}

func TestPinningRespected(t *testing.T) {
	_, k := newKernel()
	done := 0
	a := k.NewTask("a", k.NewAddressSpace(), func(task *Task) int {
		if task.Core().ID() != 5 {
			t.Errorf("task a on core %d, want 5", task.Core().ID())
		}
		done++
		return 0
	})
	a.SetAffinity(5)
	k.Start(a, 0)
	if err := k.Engine().Run(); err != nil {
		t.Fatalf("engine: %v", err)
	}
	if done != 1 {
		t.Error("pinned task did not run")
	}
}

func TestUnpinnedTasksSpreadAcrossCores(t *testing.T) {
	_, k := newKernel()
	cores := make(map[int]bool)
	var tasks []*Task
	for i := 0; i < 4; i++ {
		task := k.NewTask("t", k.NewAddressSpace(), func(task *Task) int {
			cores[task.Core().ID()] = true
			task.Charge(time100)
			return 0
		})
		tasks = append(tasks, task)
	}
	for _, task := range tasks {
		k.Start(task, 0)
	}
	if err := k.Engine().Run(); err != nil {
		t.Fatalf("engine: %v", err)
	}
	if len(cores) != 4 {
		t.Errorf("4 unpinned tasks used %d cores, want 4", len(cores))
	}
}

const time100 = 100 * sim.Nanosecond

func TestFileSyscalls(t *testing.T) {
	_, k := newKernel()
	runMain(t, k, func(task *Task) int {
		fd, err := task.Open("/data", fs.OCreate|fs.ORdWr)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		if n, err := task.Write(fd, []byte("payload"), false); err != nil || n != 7 {
			t.Fatalf("write = %d,%v", n, err)
		}
		if err := task.Seek(fd, 0); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 7)
		if n, err := task.Read(fd, buf); err != nil || string(buf[:n]) != "payload" {
			t.Fatalf("read = %q,%v", buf[:n], err)
		}
		if err := task.Close(fd); err != nil {
			t.Fatal(err)
		}
		if err := task.Close(fd); !errors.Is(err, ErrBadFD) {
			t.Errorf("double close err = %v, want ErrBadFD", err)
		}
		return 0
	})
}

func TestFDIsolationBetweenPiPProcesses(t *testing.T) {
	// The system-call consistency premise: FD tables diverge after a
	// process-mode clone. An fd opened by the child after the clone is
	// meaningless in the parent, even though they share an address
	// space (CloneVM without CloneFiles).
	_, k := newKernel()
	runMain(t, k, func(parent *Task) int {
		var childFD int
		parent.Clone("other", PiPProcessFlags, func(c *Task) int {
			var err error
			childFD, err = c.Open("/child-file", fs.OCreate|fs.OWrOnly)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Write(childFD, []byte("x"), false); err != nil {
				t.Errorf("child write on own fd: %v", err)
			}
			return 0
		})
		parent.Wait()
		// The child's fd number is unknown to the parent's table.
		if _, err := parent.FDTable().Get(childFD); !errors.Is(err, ErrBadFD) {
			t.Errorf("parent resolved child's fd %d: err = %v, want ErrBadFD", childFD, err)
		}
		return 0
	})
}

func TestWriteCostScalesWithSize(t *testing.T) {
	e, k := newKernel()
	var small, large sim.Duration
	runMain(t, k, func(task *Task) int {
		fd, _ := task.Open("/f", fs.OCreate|fs.OWrOnly)
		s := e.Now()
		task.Write(fd, make([]byte, 64), false)
		small = e.Now().Sub(s)
		s = e.Now()
		task.Write(fd, make([]byte, 1<<20), false)
		large = e.Now().Sub(s)
		task.Close(fd)
		return 0
	})
	if large < 10*small {
		t.Errorf("1MiB write (%v) not much slower than 64B (%v)", large, small)
	}
}

func TestRemoteWritePenalty(t *testing.T) {
	// Albireo models a remote-byte penalty (Wallaby's prefetchers hide
	// it, so its factor is 1.0).
	e := sim.New()
	k := New(e, arch.Albireo())
	var local, remote sim.Duration
	runMain(t, k, func(task *Task) int {
		fd, _ := task.Open("/f", fs.OCreate|fs.OWrOnly)
		buf := make([]byte, 1<<20)
		s := e.Now()
		task.Write(fd, buf, false)
		local = e.Now().Sub(s)
		s = e.Now()
		task.Write(fd, buf, true)
		remote = e.Now().Sub(s)
		task.Close(fd)
		return 0
	})
	if remote <= local {
		t.Errorf("remote write (%v) not slower than local (%v)", remote, local)
	}
}

func TestFutexWaitWake(t *testing.T) {
	e, k := newKernel()
	space := k.NewAddressSpace()
	var addr uint64
	waiter := k.NewTask("waiter", space, func(task *Task) int {
		if err := task.FutexWait(addr, 0); err != nil {
			t.Errorf("futex wait: %v", err)
		}
		return 0
	})
	waker := k.NewTask("waker", space, func(task *Task) int {
		task.Nanosleep(5 * sim.Microsecond)
		task.Space().WriteU64(addr, 1, nil)
		if n := task.FutexWake(addr, 1); n != 1 {
			t.Errorf("futex wake = %d, want 1", n)
		}
		return 0
	})
	a, err := space.Mmap(8, semProt, "futex", true, nil)
	if err != nil {
		t.Fatal(err)
	}
	addr = a
	waiter.SetAffinity(0)
	waker.SetAffinity(1)
	k.Start(waiter, 0)
	k.Start(waker, 0)
	if err := e.Run(); err != nil {
		t.Fatalf("engine: %v", err)
	}
}

func TestFutexWaitValueMismatch(t *testing.T) {
	_, k := newKernel()
	runMain(t, k, func(task *Task) int {
		addr, _ := task.Mmap(8, true)
		task.Space().WriteU64(addr, 99, nil)
		if err := task.FutexWait(addr, 0); !errors.Is(err, ErrFutexAgain) {
			t.Errorf("err = %v, want ErrFutexAgain", err)
		}
		return 0
	})
}

func TestSemaphorePingPong(t *testing.T) {
	e, k := newKernel()
	space := k.NewAddressSpace()
	var semA, semB *Semaphore
	const rounds = 10
	seqLen := 0
	producer := k.NewTask("producer", space, func(task *Task) int {
		for i := 0; i < rounds; i++ {
			semA.Post(task)
			semB.Wait(task)
		}
		return 0
	})
	consumer := k.NewTask("consumer", space, func(task *Task) int {
		for i := 0; i < rounds; i++ {
			semA.Wait(task)
			seqLen++
			semB.Post(task)
		}
		return 0
	})
	setup := k.NewTask("setup", space, func(task *Task) int {
		var err error
		if semA, err = task.NewSemaphore(0); err != nil {
			t.Error(err)
		}
		if semB, err = task.NewSemaphore(0); err != nil {
			t.Error(err)
		}
		k.Start(producer, 0)
		k.Start(consumer, 0)
		return 0
	})
	producer.SetAffinity(0)
	consumer.SetAffinity(1)
	k.Start(setup, 0)
	if err := e.Run(); err != nil {
		t.Fatalf("engine: %v", err)
	}
	if seqLen != rounds {
		t.Errorf("consumer ran %d rounds, want %d", seqLen, rounds)
	}
}

func TestLoadTLSCosts(t *testing.T) {
	// x86_64: arch_prctl system-call, counted and expensive.
	e, k := newKernel()
	prctls := countCalls(k, "arch_prctl")
	var elapsed sim.Duration
	runMain(t, k, func(task *Task) int {
		s := e.Now()
		task.LoadTLS(0xdead000)
		elapsed = e.Now().Sub(s)
		if task.TLSReg() != 0xdead000 {
			t.Error("TLS register not set")
		}
		return 0
	})
	if ns := elapsed.Nanoseconds(); ns != 109 {
		t.Errorf("x86 TLS load = %vns, want 109", ns)
	}
	if *prctls != 1 {
		t.Error("arch_prctl not counted as a syscall on x86_64")
	}

	// AArch64: direct register write, cheap, no syscall.
	e2 := sim.New()
	k2 := New(e2, arch.Albireo())
	prctls2 := countCalls(k2, "arch_prctl")
	task2 := k2.NewTask("main", k2.NewAddressSpace(), func(task *Task) int {
		s := e2.Now()
		task.LoadTLS(1)
		if got := e2.Now().Sub(s).Nanoseconds(); got != 2.5 {
			t.Errorf("aarch64 TLS load = %vns, want 2.5", got)
		}
		return 0
	})
	k2.Start(task2, 0)
	if err := e2.Run(); err != nil {
		t.Fatal(err)
	}
	if *prctls2 != 0 {
		t.Error("aarch64 TLS load must not be a syscall")
	}
}

// delivery is one signal:deliver fire: the receiving task, the signal
// and whether the task's disposition had a handler for it.
type delivery struct {
	task    *Task
	sig     int
	handled bool
}

// recordDeliveries attaches a program at signal:deliver that appends
// every delivery to the returned log.
func recordDeliveries(k *Kernel) *[]delivery {
	log := new([]delivery)
	k.Probes().Attach("deliveries", func(c *probe.Ctx) probe.Verdict {
		t, sig := c.Task.(*Task), int(c.Val)
		*log = append(*log, delivery{task: t, sig: sig, handled: t.sig.handlers[sig] != nil})
		return probe.Verdict{}
	}, probe.PSignal)
	return log
}

func TestSignalDeliveryAndHandler(t *testing.T) {
	_, k := newKernel()
	log := recordDeliveries(k)
	runMain(t, k, func(parent *Task) int {
		handled := false
		child := parent.Clone("victim", PiPProcessFlags, func(c *Task) int {
			c.Sigaction(SIGUSR1, func(t *Task, sig int) { handled = true })
			c.Nanosleep(100 * sim.Microsecond)
			return 0
		})
		parent.Nanosleep(10 * sim.Microsecond)
		if err := parent.Kill(child.PID(), SIGUSR1); err != nil {
			t.Errorf("kill: %v", err)
		}
		parent.Wait()
		if !handled {
			t.Error("handler did not run")
		}
		var recs []delivery
		for _, d := range *log {
			if d.task.Signals() == child.Signals() {
				recs = append(recs, d)
			}
		}
		if len(recs) != 1 || recs[0].task != child || !recs[0].handled {
			t.Errorf("delivery records = %+v", recs)
		}
		return 0
	})
}

func TestBlockedSignalStaysPending(t *testing.T) {
	_, k := newKernel()
	runMain(t, k, func(parent *Task) int {
		got := 0
		child := parent.Clone("masker", PiPProcessFlags, func(c *Task) int {
			c.Sigaction(SIGUSR1, func(t *Task, sig int) { got++ })
			c.Sigprocmask(1 << SIGUSR1)
			c.Nanosleep(50 * sim.Microsecond)
			if got != 0 {
				t.Error("blocked signal delivered early")
			}
			c.Sigprocmask(0) // unblocking delivers the pending signal
			return 0
		})
		parent.Nanosleep(10 * sim.Microsecond)
		parent.Kill(child.PID(), SIGUSR1)
		parent.Wait()
		if got != 1 {
			t.Errorf("handler ran %d times, want 1", got)
		}
		return 0
	})
}

func TestSignalInterruptsSleepViaWaitError(t *testing.T) {
	e, k := newKernel()
	runMain(t, k, func(parent *Task) int {
		child := parent.Clone("sleeper", PiPProcessFlags, func(c *Task) int {
			c.Nanosleep(time100) // ensure parent's Kill targets a sleeping task
			start := e.Now()
			c.Nanosleep(10 * sim.Millisecond)
			if e.Now().Sub(start) >= 10*sim.Millisecond {
				t.Error("signal did not shorten the sleep")
			}
			return 0
		})
		parent.Nanosleep(50 * sim.Microsecond)
		parent.Kill(child.PID(), SIGUSR1)
		parent.Wait()
		return 0
	})
}

func TestKillBadPID(t *testing.T) {
	_, k := newKernel()
	runMain(t, k, func(task *Task) int {
		if err := task.Kill(9999, SIGTERM); !errors.Is(err, ErrBadPID) {
			t.Errorf("err = %v, want ErrBadPID", err)
		}
		return 0
	})
}

func TestSyscallAuditorSeesCaller(t *testing.T) {
	_, k := newKernel()
	var audited []string
	k.Probes().Attach("audit", func(c *probe.Ctx) probe.Verdict {
		if c.Task.Name() != "main" {
			t.Errorf("syscall:enter for %s saw task %s, want the caller", c.Site, c.Task.Name())
		}
		audited = append(audited, c.Site)
		return probe.Verdict{}
	}, probe.PSyscallEnter)
	runMain(t, k, func(task *Task) int {
		task.Getpid()
		fd, _ := task.Open("/x", fs.OCreate|fs.OWrOnly)
		task.Close(fd)
		return 0
	})
	want := []string{"getpid", "open", "close"}
	if len(audited) != 3 {
		t.Fatalf("audited %v", audited)
	}
	for i := range want {
		if audited[i] != want[i] {
			t.Errorf("audited[%d] = %q, want %q", i, audited[i], want[i])
		}
	}
}

func TestMmapMunmapSyscalls(t *testing.T) {
	_, k := newKernel()
	runMain(t, k, func(task *Task) int {
		addr, err := task.Mmap(1<<16, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := task.MemWrite(addr, []byte("x")); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 1)
		if err := task.MemRead(addr, buf); err != nil || buf[0] != 'x' {
			t.Fatalf("mem read = %q, %v", buf, err)
		}
		if err := task.Munmap(addr, 1<<16); err != nil {
			t.Fatal(err)
		}
		return 0
	})
}

func TestCoreBusyAccounting(t *testing.T) {
	_, k := newKernel()
	runMain(t, k, func(task *Task) int {
		task.Compute(1 * sim.Millisecond)
		return 0
	})
	var busy sim.Duration
	for i := 0; i < k.Cores(); i++ {
		busy += k.Core(i).Busy()
	}
	if busy < sim.Millisecond {
		t.Errorf("total core busy = %v, want >= 1ms", busy)
	}
}

func TestQueuedTaskRunsAfterCurrentBlocks(t *testing.T) {
	e, k := newKernel()
	order := []string{}
	a := k.NewTask("a", k.NewAddressSpace(), func(task *Task) int {
		order = append(order, "a-start")
		task.Nanosleep(10 * sim.Microsecond)
		order = append(order, "a-end")
		return 0
	})
	b := k.NewTask("b", k.NewAddressSpace(), func(task *Task) int {
		order = append(order, "b")
		return 0
	})
	a.SetAffinity(0)
	b.SetAffinity(0)
	k.Start(a, 0)
	k.Start(b, 0)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a-start", "b", "a-end"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSyscallCountsAccumulate(t *testing.T) {
	_, k := newKernel()
	getpids := countCalls(k, "getpid")
	runMain(t, k, func(task *Task) int {
		for i := 0; i < 5; i++ {
			task.Getpid()
		}
		return 0
	})
	if got := *getpids; got != 5 {
		t.Errorf("getpid count = %d, want 5", got)
	}
	if k.Syscalls() < 5 {
		t.Errorf("total syscalls = %d, want >= 5", k.Syscalls())
	}
}

func TestKernelAccessors(t *testing.T) {
	e, k := newKernel()
	if k.Machine().Name != "Wallaby" || k.Phys() == nil || k.FS() == nil {
		t.Error("kernel accessors")
	}
	runMain(t, k, func(task *Task) int {
		if task.Name() != "main" || task.Kernel() != k || task.Parent() != nil {
			t.Error("task accessors")
		}
		if task.Pinned() != -1 {
			t.Errorf("Pinned = %d", task.Pinned())
		}
		if task.String() == "" || task.State().String() != "running" {
			t.Error("stringers")
		}
		if task.Gettid() != task.PID() {
			t.Error("gettid")
		}
		child := task.Clone("c", PiPProcessFlags, func(c *Task) int {
			c.SchedYield()
			return 0
		})
		if k.Core(task.Core().ID()).Current() != task {
			t.Error("Core.Current")
		}
		_ = child
		task.Wait()
		return 0
	})
	_ = e
	if k.ContextSwitches() == 0 {
		// At least the exit path switches happen in most runs; don't
		// require but exercise the accessor.
		_ = k.ContextSwitches()
	}
}

func TestUnlinkSyscall(t *testing.T) {
	_, k := newKernel()
	runMain(t, k, func(task *Task) int {
		fd, _ := task.Open("/gone", fs.OCreate|fs.OWrOnly)
		task.Close(fd)
		if err := task.Unlink("/gone"); err != nil {
			t.Errorf("unlink: %v", err)
		}
		if err := task.Unlink("/gone"); err == nil {
			t.Error("double unlink succeeded")
		}
		return 0
	})
}

func TestFutexWaitersCount(t *testing.T) {
	e, k := newKernel()
	space := k.NewAddressSpace()
	var addr uint64
	waiter := k.NewTask("w", space, func(task *Task) int {
		return boolToInt(task.FutexWait(addr, 0) == nil)
	})
	driver := k.NewTask("d", space, func(task *Task) int {
		a, _ := space.Mmap(8, semProt, "fx", true, nil)
		addr = a
		k.Start(waiter, 0)
		task.Nanosleep(5 * sim.Microsecond)
		if got := k.FutexWaiters(space.ID, addr); got != 1 {
			t.Errorf("FutexWaiters = %d, want 1", got)
		}
		task.FutexWake(addr, 1)
		return 0
	})
	driver.SetAffinity(0)
	waiter.SetAffinity(1)
	k.Start(driver, 0)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func TestSemaphoreValueAndAddr(t *testing.T) {
	_, k := newKernel()
	runMain(t, k, func(task *Task) int {
		sem, err := task.NewSemaphore(3)
		if err != nil {
			t.Fatal(err)
		}
		if sem.Addr() == 0 {
			t.Error("Addr zero")
		}
		if v, _ := sem.Value(task); v != 3 {
			t.Errorf("Value = %d", v)
		}
		sem.Wait(task)
		if v, _ := sem.Value(task); v != 2 {
			t.Errorf("Value after Wait = %d", v)
		}
		sem.Post(task)
		if v, _ := sem.Value(task); v != 3 {
			t.Errorf("Value after Post = %d", v)
		}
		return 0
	})
}

func TestForkStyleCloneIsolatesMemory(t *testing.T) {
	// clone without CLONE_VM = fork: copy-on-write space. The child
	// inherits the parent's memory image but writes are private — the
	// conventional model PiP's shared-space spawn contrasts with.
	_, k := newKernel()
	runMain(t, k, func(parent *Task) int {
		addr, _ := parent.Mmap(4096, true)
		parent.MemWrite(addr, []byte("original"))
		parent.Clone("forked", 0, func(c *Task) int {
			buf := make([]byte, 8)
			c.MemRead(addr, buf)
			if string(buf) != "original" {
				t.Errorf("child inherited %q", buf)
			}
			c.MemWrite(addr, []byte("mutated!"))
			return 0
		})
		parent.Wait()
		buf := make([]byte, 8)
		parent.MemRead(addr, buf)
		if string(buf) != "original" {
			t.Errorf("parent sees child write: %q", buf)
		}
		// Contrast: a CLONE_VM (PiP-style) child shares the memory.
		parent.Clone("pip-style", PiPProcessFlags, func(c *Task) int {
			c.MemWrite(addr, []byte("visible!"))
			return 0
		})
		parent.Wait()
		parent.MemRead(addr, buf)
		if string(buf) != "visible!" {
			t.Errorf("CLONE_VM write not shared: %q", buf)
		}
		return 0
	})
}
