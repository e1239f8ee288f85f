// Package arch defines the CPU architecture and machine cost models used
// by the simulated kernel and user-level runtime.
//
// The paper evaluates ULP-PiP on two machines: "Wallaby" (x86_64, Intel
// Xeon E5-2650 v2, 2.6 GHz, 8 cores x 2 sockets) and "Albireo" (AArch64,
// AMD Opteron A1170 / Cortex-A57, 2.0 GHz, 8 cores). The two differ in a
// way that is central to the paper: on x86_64 the TLS register (FS) is
// privileged and must be loaded via the arch_prctl() system-call, while
// on AArch64 the TLS register (tpidr_el0) is user-accessible and loading
// it costs a few nanoseconds.
//
// Primitive costs are taken directly from the paper's Tables III-V where
// printed; the remaining internal parameters are derived from the
// aggregate numbers in those tables (see DESIGN.md section 2).
package arch

import (
	"strings"

	"repro/internal/sim"
)

// CPUArch enumerates the modeled instruction-set architectures.
type CPUArch int

const (
	// X8664 models x86_64: privileged FS register (TLS load requires a
	// system-call) and an RDTSC cycle counter.
	X8664 CPUArch = iota
	// AArch64 models 64-bit ARM: user-accessible tpidr_el0 TLS register
	// and no user-readable cycle counter (as on the paper's Albireo).
	AArch64
)

// String implements fmt.Stringer.
func (a CPUArch) String() string {
	switch a {
	case X8664:
		return "x86_64"
	case AArch64:
		return "aarch64"
	}
	return "unknown-arch"
}

// CostModel holds every primitive cost charged by the simulation. All
// durations are virtual time. Fields that reproduce a printed number from
// the paper say so; the others are calibration parameters derived from
// the paper's aggregate measurements.
type CostModel struct {
	// UserCtxSwap is one fcontext-style swap_ctx: save the current
	// register context to the stack and load another (paper Table III,
	// "Context Sw.").
	UserCtxSwap sim.Duration

	// TLSLoad is the cost of pointing the TLS register at another
	// thread descriptor (paper Table III, "Load TLS"). On x86_64 this
	// includes the arch_prctl system-call; on AArch64 it is a plain
	// register write.
	TLSLoad sim.Duration

	// SyscallEntry is the user->kernel->user trap cost common to every
	// system-call.
	SyscallEntry sim.Duration

	// GetPIDWork is the in-kernel work of getpid beyond the trap
	// (SyscallEntry+GetPIDWork reproduces paper Table V, "Linux").
	GetPIDWork sim.Duration

	// SchedYieldNoSwitch is sched_yield when the caller is the only
	// runnable thread on its core (paper Table IV, "2 cores" row).
	SchedYieldNoSwitch sim.Duration

	// KernelSwitch is one kernel-level context switch between KLTs
	// (derived: Table IV "1 core" minus "2 cores").
	KernelSwitch sim.Duration

	// RunQueueOp is one user-level ready-queue enqueue or dequeue,
	// including its lock/atomic (derived from Table IV "ULP-PiP yield").
	RunQueueOp sim.Duration

	// AtomicOp is a single uncontended atomic read-modify-write.
	AtomicOp sim.Duration

	// SpinNotice is the latency for a busy-waiting core to observe a
	// flag set by another core: cache-line transfer plus poll interval
	// (derived from Table V, BUSYWAIT).
	SpinNotice sim.Duration

	// FutexWakeCall is the futex(FUTEX_WAKE) system-call cost paid by
	// the waker; FutexWakeLatency is the additional delay until the
	// woken thread runs (kernel wakeup path + dispatch). FutexWaitCall
	// is the cost of going to sleep with futex(FUTEX_WAIT). All three
	// are derived from Table V, BLOCKING.
	FutexWakeCall    sim.Duration
	FutexWakeLatency sim.Duration
	FutexWaitCall    sim.Duration

	// Thread/process lifecycle.
	ThreadCreate sim.Duration // pthread_create
	CloneCost    sim.Duration // clone() a new process-mode task
	WaitCost     sim.Duration // wait()/waitpid in-kernel work
	ExitCost     sim.Duration // thread/process teardown

	// Filesystem (tmpfs) primitives for the Fig. 7/8 workload.
	OpenCost  sim.Duration // open(O_CREAT) on tmpfs, beyond SyscallEntry
	CloseCost sim.Duration // close, beyond SyscallEntry
	WriteBase sim.Duration // write, size-independent part beyond SyscallEntry
	ReadBase  sim.Duration

	// WriteBytePS is the per-byte cost (picoseconds/byte) of copying
	// user data into tmpfs when the executing core is cache-warm with
	// the source buffer.
	WriteBytePS float64

	// RemoteBytePenalty multiplies WriteBytePS when the write executes
	// on a core that did not produce the buffer (the ULP dedicated
	// syscall core): the data must stream over the interconnect. This
	// produces the Fig. 7 crossover at ~32 KiB on Albireo.
	RemoteBytePenalty float64

	// AIO internals (glibc-style thread-pool implementation).
	AIODispatch   sim.Duration // enqueue request, before waking helper
	AIOComplete   sim.Duration // helper posts completion
	AIOReturnPoll sim.Duration // one aio_error/aio_return status check

	// Memory system.
	MinorFault    sim.Duration // create a page-table entry
	MajorFault    sim.Duration // allocate + zero a physical page
	TLBMissCost   sim.Duration // page-walk on TLB miss
	MemCopyBytePS float64      // plain memcpy per byte

	// Loader / PiP.
	DlmopenBase   sim.Duration // namespace creation
	DlmopenPerSym sim.Duration // per-symbol relocation
	MmapCost      sim.Duration // mmap syscall beyond SyscallEntry

	// SigmaskSwitch is sigprocmask: the extra cost of ucontext-style
	// context switching that saves/restores signal masks (paper §VII).
	SigmaskSwitch sim.Duration
}

// Machine describes one simulated evaluation platform.
type Machine struct {
	Name           string
	Arch           CPUArch
	CoresPerSocket int
	Sockets        int
	ClockGHz       float64

	// TLSUserAccessible reports whether the TLS register can be loaded
	// without a system-call (true on AArch64).
	TLSUserAccessible bool

	// HasCycleCounter reports whether a user-readable cycle counter
	// (RDTSC) exists; the paper prints cycle columns only for Wallaby.
	HasCycleCounter bool

	Costs CostModel
}

// Cores reports the total core count.
func (m *Machine) Cores() int { return m.CoresPerSocket * m.Sockets }

// Cycles converts a duration to CPU cycles at the machine's clock.
func (m *Machine) Cycles(d sim.Duration) float64 {
	return d.Nanoseconds() * m.ClockGHz
}

// SyscallCost is the total time of a simple system-call with the given
// in-kernel work.
func (m *Machine) SyscallCost(work sim.Duration) sim.Duration {
	return m.Costs.SyscallEntry + work
}

// WriteCost models write(2) of n bytes on tmpfs executed on a cache-warm
// core (remote=false) or on a core that must pull the buffer across the
// interconnect (remote=true).
func (m *Machine) WriteCost(n int, remote bool) sim.Duration {
	per := m.Costs.WriteBytePS
	if remote {
		per *= m.Costs.RemoteBytePenalty
	}
	return m.Costs.SyscallEntry + m.Costs.WriteBase + sim.Duration(per*float64(n))
}

// Wallaby returns the model of the paper's x86_64 machine (Intel Xeon
// E5-2650 v2, 2.6 GHz, 8 cores x 2 sockets, Linux 3.10 / CentOS 7).
func Wallaby() *Machine {
	return &Machine{
		Name:              "Wallaby",
		Arch:              X8664,
		CoresPerSocket:    8,
		Sockets:           2,
		ClockGHz:          2.6,
		TLSUserAccessible: false,
		HasCycleCounter:   true,
		Costs: CostModel{
			UserCtxSwap: sim.FromNS(33.4),  // Table III: 3.34e-8 s / 86 cyc
			TLSLoad:     sim.FromNS(109.0), // Table III: 1.09e-7 s / 284 cyc (arch_prctl)

			SyscallEntry: sim.FromNS(55.0),
			GetPIDWork:   sim.FromNS(12.1), // 55+12.1 = 67.1 ns (Table V, Linux)

			SchedYieldNoSwitch: sim.FromNS(77.9),  // Table IV, 2 cores
			KernelSwitch:       sim.FromNS(188.0), // 266 - 78 (Table IV, 1 core)

			RunQueueOp: sim.FromNS(4.0), // 33.4+109+2*4 ~ 150 ns (Table IV, ULP-PiP)
			AtomicOp:   sim.FromNS(8.0),

			SpinNotice: sim.FromNS(1030.0), // calibrated to Table V BUSYWAIT

			FutexWakeCall:    sim.FromNS(180.0), // calibrated to Table V BLOCKING
			FutexWakeLatency: sim.FromNS(1145.0),
			FutexWaitCall:    sim.FromNS(120.0),

			ThreadCreate: sim.FromUS(12.0),
			CloneCost:    sim.FromUS(35.0),
			WaitCost:     sim.FromNS(350.0),
			ExitCost:     sim.FromUS(4.0),

			OpenCost:  sim.FromNS(3200.0),
			CloseCost: sim.FromNS(800.0),
			WriteBase: sim.FromNS(550.0),
			ReadBase:  sim.FromNS(420.0),

			WriteBytePS:       140.0, // ~7 GB/s cache-warm tmpfs copy
			RemoteBytePenalty: 1.0,   // QPI prefetchers hide the remote stream

			AIODispatch:   sim.FromNS(450.0),
			AIOComplete:   sim.FromNS(300.0),
			AIOReturnPoll: sim.FromNS(90.0),

			MinorFault:    sim.FromNS(1100.0),
			MajorFault:    sim.FromUS(3.2),
			TLBMissCost:   sim.FromNS(38.0),
			MemCopyBytePS: 110.0,

			DlmopenBase:   sim.FromUS(180.0),
			DlmopenPerSym: sim.FromNS(90.0),
			MmapCost:      sim.FromNS(800.0),

			SigmaskSwitch: sim.FromNS(95.0),
		},
	}
}

// Albireo returns the model of the paper's AArch64 machine (AMD Opteron
// A1170, Cortex-A57, 2.0 GHz, 8 cores, Linux 4.14 / CentOS 7).
func Albireo() *Machine {
	return &Machine{
		Name:              "Albireo",
		Arch:              AArch64,
		CoresPerSocket:    8,
		Sockets:           1,
		ClockGHz:          2.0,
		TLSUserAccessible: true,
		HasCycleCounter:   false,
		Costs: CostModel{
			UserCtxSwap: sim.FromNS(24.5), // Table III: 2.45e-8 s
			TLSLoad:     sim.FromNS(2.5),  // Table III: 2.50e-9 s (tpidr_el0)

			SyscallEntry: sim.FromNS(350.0),
			GetPIDWork:   sim.FromNS(35.0), // 350+35 = 385 ns (Table V, Linux)

			SchedYieldNoSwitch: sim.FromNS(348.0), // Table IV, 2 cores
			KernelSwitch:       sim.FromNS(872.0), // 1220 - 348 (Table IV, 1 core)

			RunQueueOp: sim.FromNS(46.0), // 24.5+2.5+2*46 ~ 120 ns (Table IV)
			AtomicOp:   sim.FromNS(22.0),

			SpinNotice: sim.FromNS(2045.0), // calibrated to Table V BUSYWAIT

			FutexWakeCall:    sim.FromNS(420.0), // calibrated to Table V BLOCKING
			FutexWakeLatency: sim.FromNS(1510.0),
			FutexWaitCall:    sim.FromNS(380.0),

			ThreadCreate: sim.FromUS(28.0),
			CloneCost:    sim.FromUS(65.0),
			WaitCost:     sim.FromNS(900.0),
			ExitCost:     sim.FromUS(9.0),

			OpenCost:  sim.FromNS(9000.0),
			CloseCost: sim.FromNS(2000.0),
			WriteBase: sim.FromNS(1200.0),
			ReadBase:  sim.FromNS(950.0),

			WriteBytePS:       260.0, // ~3.8 GB/s cache-warm tmpfs copy
			RemoteBytePenalty: 1.16,  // weak prefetch: remote writes stream slowly

			AIODispatch:   sim.FromNS(900.0),
			AIOComplete:   sim.FromNS(650.0),
			AIOReturnPoll: sim.FromNS(380.0),

			MinorFault:    sim.FromNS(2300.0),
			MajorFault:    sim.FromUS(5.8),
			TLBMissCost:   sim.FromNS(75.0),
			MemCopyBytePS: 210.0,

			DlmopenBase:   sim.FromUS(320.0),
			DlmopenPerSym: sim.FromNS(170.0),
			MmapCost:      sim.FromNS(1700.0),

			SigmaskSwitch: sim.FromNS(390.0),
		},
	}
}

// Machines returns the two evaluation platforms in paper order.
func Machines() []*Machine { return []*Machine{Wallaby(), Albireo()} }

// ByName returns the machine model with the given name in any case, or
// nil if unknown.
func ByName(name string) *Machine {
	for _, m := range Machines() {
		if strings.EqualFold(m.Name, name) {
			return m
		}
	}
	return nil
}
