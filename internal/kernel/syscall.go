package kernel

import (
	"repro/internal/fs"
	"repro/internal/mem"
	"repro/internal/probe"
	"repro/internal/sim"
)

// semProt is the protection for semaphore words.
const semProt = mem.ProtRead | mem.ProtWrite

// sysFrame carries the observability state opened by sysEnter across a
// system-call's body to sysExit. A zero frame (id 0) means neither a
// program watches syscall:exit nor a tracer records the call's span; it
// lives on the stack, so that path allocates nothing.
//
// Every system-call passes its frame by value twice, so it stays within
// four words and four fields, which Go keeps in registers (ssa.CanSSA):
// at 40 B a sysEnter/sysExit round trip cost 10.2 ns, at 24 B 2.5 ns.
// TestSysFrameFitsRegisters pins the limit.
type sysFrame struct {
	id    probe.SiteID // the call, when the frame is open
	start sim.Time
	span  uint64
}

// sysEnter opens a system-call: the common bookkeeping plus, when probe
// programs watch the syscall points, the latency clock and the
// syscall:enter fire (whose combined Delay verdict is charged to the
// task — per-tenant throttling), and when tracing, a "syscall" span on
// the executing core. Every return path of the call must run sysExit
// with the frame.
// Latency is wall virtual time, so blocking calls include their block —
// that is the number an application sees.
//
// The two halves around the Delay charge, enterFire and enterSpan, are
// separate stages of a staged call (see Spinner).
func (k *Kernel) sysEnter(t *Task, id probe.SiteID) sysFrame {
	f, delay := k.enterFire(t, id)
	if delay > 0 {
		t.Charge(delay)
	}
	k.enterSpan(t, &f)
	return f
}

// enterFire is sysEnter up to the Delay charge: the syscall count and
// the syscall:enter fire, whose Delay verdict it returns for the caller
// to charge. It charges no time itself; each call charges its own
// documented cost.
func (k *Kernel) enterFire(t *Task, id probe.SiteID) (sysFrame, sim.Duration) {
	k.syscalls++
	ps := k.probes
	hasEnter := ps.Attached(probe.PSyscallEnter)
	on := ps.Attached(probe.PSyscallExit) || k.Tracing()
	if !hasEnter && !on {
		return sysFrame{}, 0
	}
	f := sysFrame{start: k.engine.Now()}
	if on {
		f.id = id
	}
	var delay sim.Duration
	if hasEnter {
		c := ps.Begin(probe.PSyscallEnter, f.start)
		c.SetSite(id)
		c.Task = t
		delay = ps.Fire(c).Delay
	}
	return f, delay
}

// enterSpan is sysEnter after the Delay charge: when tracing, it opens
// the "syscall" span, stamped with the entry time.
func (k *Kernel) enterSpan(t *Task, f *sysFrame) {
	if f.id != 0 {
		f.span = k.beginSpanAt(f.start, t, "syscall", "", f.id.String())
	}
}

// sysExit closes the frame opened by sysEnter: the syscall:exit fire
// (wall latency in Dur) and the span end.
func (k *Kernel) sysExit(t *Task, f sysFrame) {
	if f.id == 0 {
		return
	}
	ps := k.probes
	if ps.Attached(probe.PSyscallExit) {
		end := k.engine.Now()
		c := ps.Begin(probe.PSyscallExit, end)
		c.SetSite(f.id)
		c.Task = t
		c.Dur = end.Sub(f.start)
		ps.Fire(c)
	}
	if f.span != 0 {
		k.EndSpan(t, "", f.span)
	}
}

// Getpid returns the calling task's process id (thread-group id). This
// is the paper's canonical consistency example: "when a UC calls the
// getpid() system-call, the returned PID may vary depending on the
// scheduling KLT" — unless couple() routes the call to the right KC.
func (t *Task) Getpid() int {
	t.live()
	k := t.kernel
	f := k.sysEnter(t, probe.SiteGetpid)
	t.Charge(k.machine.Costs.SyscallEntry + k.machine.Costs.GetPIDWork)
	k.sysExit(t, f)
	return t.tgid
}

// Gettid returns the kernel task id (distinct per thread).
func (t *Task) Gettid() int {
	t.live()
	k := t.kernel
	f := k.sysEnter(t, probe.SiteGettid)
	t.Charge(k.machine.Costs.SyscallEntry + k.machine.Costs.GetPIDWork)
	k.sysExit(t, f)
	return t.pid
}

// LoadTLS points the task's TLS register at a new thread descriptor.
// On x86_64 the FS register is privileged, so this is the arch_prctl
// system-call and costs the full Table III "Load TLS" time; on AArch64
// tpidr_el0 is written directly from user mode for a few nanoseconds.
func (t *Task) LoadTLS(val uint64) {
	t.live()
	k := t.kernel
	var f sysFrame
	if !k.machine.TLSUserAccessible {
		f = k.sysEnter(t, probe.SiteArchPrctl)
	}
	if k.probes.Attached(probe.PTLSLoad) {
		c := k.probes.Begin(probe.PTLSLoad, k.engine.Now())
		c.Task = t
		c.Dur = k.machine.Costs.TLSLoad
		k.probes.Fire(c)
	}
	t.Charge(k.machine.Costs.TLSLoad)
	t.tlsReg = val
	if !k.machine.TLSUserAccessible {
		k.sysExit(t, f)
	}
}

// Open opens path with the given flags on the machine's tmpfs, returning
// a descriptor in the calling task's FD table.
func (t *Task) Open(path string, flags fs.OpenFlags) (int, error) {
	t.live()
	k := t.kernel
	fr := k.sysEnter(t, probe.SiteOpen)
	if err := k.faultSyscall(t, probe.SiteOpen); err != nil {
		t.Charge(k.machine.Costs.SyscallEntry)
		k.sysExit(t, fr)
		return -1, err
	}
	t.Charge(k.machine.Costs.SyscallEntry + k.machine.Costs.OpenCost)
	f, err := k.fs.Open(path, flags)
	if err != nil {
		k.sysExit(t, fr)
		return -1, err
	}
	fd := t.fdt.Alloc(f)
	k.sysExit(t, fr)
	return fd, nil
}

// Write writes data to fd. remote marks that the calling core did not
// produce the buffer (e.g. a dedicated system-call core executing on
// behalf of a decoupled ULP), which streams the data across the
// interconnect at the machine's remote-byte penalty.
func (t *Task) Write(fd int, data []byte, remote bool) (int, error) {
	t.live()
	k := t.kernel
	fr := k.sysEnter(t, probe.SiteWrite)
	if err := k.faultSyscall(t, probe.SiteWrite); err != nil {
		t.Charge(k.machine.Costs.SyscallEntry)
		k.sysExit(t, fr)
		return 0, err
	}
	t.Charge(k.faultIOScale(t, k.machine.WriteCost(len(data), remote)))
	f, err := t.fdt.Get(fd)
	if err != nil {
		k.sysExit(t, fr)
		return 0, err
	}
	n, err := f.Write(data)
	k.sysExit(t, fr)
	return n, err
}

// Read reads from fd into buf.
func (t *Task) Read(fd int, buf []byte) (int, error) {
	t.live()
	k := t.kernel
	fr := k.sysEnter(t, probe.SiteRead)
	c := k.machine.Costs
	if err := k.faultSyscall(t, probe.SiteRead); err != nil {
		t.Charge(c.SyscallEntry)
		k.sysExit(t, fr)
		return 0, err
	}
	f, err := t.fdt.Get(fd)
	if err != nil {
		t.Charge(c.SyscallEntry + c.ReadBase)
		k.sysExit(t, fr)
		return 0, err
	}
	n, err := f.Read(buf)
	t.Charge(c.SyscallEntry + c.ReadBase + k.faultIOScale(t, fromBytes(c.WriteBytePS, n)))
	k.sysExit(t, fr)
	return n, err
}

// Close closes fd.
func (t *Task) Close(fd int) error {
	t.live()
	k := t.kernel
	fr := k.sysEnter(t, probe.SiteClose)
	t.Charge(k.machine.Costs.SyscallEntry + k.machine.Costs.CloseCost)
	f, err := t.fdt.Remove(fd)
	if err != nil {
		k.sysExit(t, fr)
		return err
	}
	err = f.Close()
	k.sysExit(t, fr)
	return err
}

// Seek positions fd (lseek).
func (t *Task) Seek(fd, pos int) error {
	t.live()
	k := t.kernel
	fr := k.sysEnter(t, probe.SiteLseek)
	t.Charge(k.machine.Costs.SyscallEntry)
	f, err := t.fdt.Get(fd)
	if err != nil {
		k.sysExit(t, fr)
		return err
	}
	err = f.Seek(pos)
	k.sysExit(t, fr)
	return err
}

// Unlink removes a path.
func (t *Task) Unlink(path string) error {
	t.live()
	k := t.kernel
	fr := k.sysEnter(t, probe.SiteUnlink)
	t.Charge(k.machine.Costs.SyscallEntry + k.machine.Costs.CloseCost)
	err := k.fs.Unlink(path)
	k.sysExit(t, fr)
	return err
}

// Mmap allocates anonymous memory in the task's address space
// (PiP's malloc is configured to use mmap instead of brk, because the
// one heap segment cannot be shared; see the paper's §IV).
func (t *Task) Mmap(size uint64, populated bool) (uint64, error) {
	t.live()
	k := t.kernel
	fr := k.sysEnter(t, probe.SiteMmap)
	t.Charge(k.machine.Costs.SyscallEntry + k.machine.Costs.MmapCost)
	va, err := t.space.Mmap(size, mem.ProtRead|mem.ProtWrite, t.name+".mmap", populated, t)
	k.sysExit(t, fr)
	return va, err
}

// Munmap releases memory mapped with Mmap.
func (t *Task) Munmap(addr, size uint64) error {
	t.live()
	k := t.kernel
	fr := k.sysEnter(t, probe.SiteMunmap)
	t.Charge(k.machine.Costs.SyscallEntry + k.machine.Costs.MmapCost)
	err := t.space.Munmap(addr, size)
	k.sysExit(t, fr)
	return err
}

// MemWrite/MemRead access the task's address space as plain loads and
// stores (no system-call; faults and copy time are charged).

// MemWrite stores data at va.
func (t *Task) MemWrite(va uint64, data []byte) error {
	t.live()
	return t.space.Write(va, data, t)
}

// MemRead loads len(buf) bytes from va.
func (t *Task) MemRead(va uint64, buf []byte) error {
	t.live()
	return t.space.Read(va, buf, t)
}

// Compute burns pure user-mode CPU time (the "computation" half of the
// overlap benchmarks). It is not a system-call.
func (t *Task) Compute(d sim.Duration) {
	t.live()
	t.Charge(d)
}

func fromBytes(perBytePS float64, n int) sim.Duration {
	return sim.Duration(perBytePS * float64(n))
}
