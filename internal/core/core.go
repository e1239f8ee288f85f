// Package core is the ULP-PiP runtime — the paper's primary
// contribution assembled from its substrates: User-Level Processes built
// from PiP address-space sharing (internal/pip) and Bi-Level Threads
// (internal/blt).
//
// A ULP is a PiP process whose execution context is a BLT. Boot starts a
// pip.Root; each ULP embeds the pip.Namespace the root loads for it
// (privatized variables, TLS block, exports) and the blt.BLT that runs
// it, whose original kernel context holds its PID, FD table and signal
// disposition. It is scheduled at user level like a ULT, and it
// preserves system-call consistency by coupling with its original
// kernel context around system-calls. The runtime also provides the
// consistency *auditor* that proves the property: every audited
// system-call issued inside a Consistent()/Exec() bracket is executed by
// the ULP's own kernel context.
package core

import (
	"errors"
	"fmt"

	"repro/internal/blt"
	"repro/internal/fs"
	"repro/internal/kernel"
	"repro/internal/loader"
	"repro/internal/pip"
	"repro/internal/probe"
	"repro/internal/sim"
)

// SignalMode selects how context switching treats signal state
// (paper §VII, "Discussion"): fcontext does not save/restore signal
// masks (fast, but signals land on the scheduling KC); ucontext does,
// at an extra system-call per switch.
type SignalMode int

// Signal modes.
const (
	FcontextMode SignalMode = iota
	UcontextMode
)

// String implements fmt.Stringer.
func (m SignalMode) String() string {
	if m == UcontextMode {
		return "ucontext"
	}
	return "fcontext"
}

// Config describes a ULP-PiP runtime deployment (the paper's Fig. 6):
// program cores run scheduler BLTs; syscall cores host original KCs.
type Config struct {
	ProgCores    []int
	SyscallCores []int
	Idle         blt.IdlePolicy
	Signals      SignalMode
	// Audit verifies system-call consistency at runtime: system-calls
	// made by ULP code outside a coupled section are recorded as
	// violations. They are collected rather than fatal, because an
	// injected fault may legitimately push a system-call onto the wrong
	// KC, and a chaos run must complete so the violation list can be
	// asserted on.
	Audit bool
	// WorkStealing lets idle schedulers steal ready ULPs from peers
	// (see blt.Config.WorkStealing).
	WorkStealing bool
	// PreemptQuantum, when nonzero, bounds how long a decoupled ULP may
	// compute before the runtime forces a user-level yield — Shinjuku-
	// style preemptive ULT scheduling (cited in the paper's related
	// work: "Shinjuku supports preemptive scheduling for ULTs").
	// Computation through Env.Compute is sliced at this granularity.
	PreemptQuantum sim.Duration
}

// Violation records a system-call issued by a decoupled ULP — i.e. one
// that executed on the wrong kernel context.
type Violation struct {
	ULP     string
	Syscall string
	PID     int // the foreign (scheduling) KC's pid that executed it
}

// Runtime is a live ULP-PiP instance inside a PiP root process.
type Runtime struct {
	root *pip.Root
	pool *blt.Pool
	cfg  Config

	ulps       []*ULP
	violations []Violation
}

// BootFailedExitStatus is the root task's exit status when the BLT pool
// cannot be constructed at simulation time despite the eager validation
// (e.g. address-space exhaustion); main is never called.
const BootFailedExitStatus = 125

// validateConfig rejects impossible deployments before any simulated
// work happens, so misconfiguration surfaces as an error from Boot, not
// a panic from inside the simulation.
func validateConfig(k *kernel.Kernel, cfg Config) error {
	if len(cfg.ProgCores) == 0 {
		return fmt.Errorf("core: config needs at least one program core")
	}
	if len(cfg.SyscallCores) == 0 {
		return fmt.Errorf("core: config needs at least one syscall core")
	}
	for _, set := range [][]int{cfg.ProgCores, cfg.SyscallCores} {
		for _, c := range set {
			if c < 0 || c >= k.Cores() {
				return fmt.Errorf("core: %w: core %d (machine %s has %d)",
					kernel.ErrBadCore, c, k.Machine().Name, k.Cores())
			}
		}
	}
	return nil
}

// Boot creates the PiP root process and the BLT pool inside it, then
// runs main with the ready runtime. The returned kernel task is the
// root; the simulation ends when main returns (after it has reaped its
// ULPs and shut the pool down — Runtime.WaitAll + Shutdown do this).
//
// An impossible configuration (no cores, out-of-range core ids) is
// reported here, before the simulation starts. A residual pool failure
// at simulation time exits the root with BootFailedExitStatus instead of
// panicking; main does not run.
func Boot(k *kernel.Kernel, cfg Config, main func(rt *Runtime) int) (*kernel.Task, error) {
	if err := validateConfig(k, cfg); err != nil {
		return nil, err
	}
	rt := &Runtime{cfg: cfg}
	return pip.Launch(k, "ulp-root", func(r *pip.Root) int {
		rt.root = r
		pool, err := blt.NewPool(r.Task(), blt.Config{
			ProgCores:     cfg.ProgCores,
			SyscallCores:  cfg.SyscallCores,
			Idle:          cfg.Idle,
			SwitchTLS:     true, // ULPs always switch TLS (§V-B)
			SwitchSigmask: cfg.Signals == UcontextMode,
			WorkStealing:  cfg.WorkStealing,
		})
		if err != nil {
			return BootFailedExitStatus
		}
		rt.pool = pool
		if cfg.Audit {
			defer k.Probes().Detach(rt.attachAuditor())
		}
		return main(rt)
	}), nil
}

// Kernel returns the kernel the runtime runs on.
func (rt *Runtime) Kernel() *kernel.Kernel { return rt.root.Kernel() }

// RootTask returns the PiP root's kernel task.
func (rt *Runtime) RootTask() *kernel.Task { return rt.root.Task() }

// Pool returns the underlying BLT pool.
func (rt *Runtime) Pool() *blt.Pool { return rt.pool }

// Config returns the runtime configuration.
func (rt *Runtime) Config() Config { return rt.cfg }

// ULPs returns spawned ULPs in rank order.
func (rt *Runtime) ULPs() []*ULP {
	out := make([]*ULP, len(rt.ulps))
	copy(out, rt.ulps)
	return out
}

// Violations returns recorded system-call consistency violations.
func (rt *Runtime) Violations() []Violation {
	out := make([]Violation, len(rt.violations))
	copy(out, rt.violations)
	return out
}

// auditedSyscalls are the system-calls whose result depends on
// per-process kernel state — the calls that must be coupled — indexed
// by site ID.
var auditedSyscalls = [probe.NumSites]bool{
	probe.SiteGetpid: true, probe.SiteGettid: true, probe.SiteOpen: true,
	probe.SiteRead: true, probe.SiteWrite: true, probe.SiteClose: true,
	probe.SiteLseek: true, probe.SiteUnlink: true, probe.SiteWait: true,
	probe.SiteKill: true, probe.SiteSigaction: true, probe.SiteSigprocmask: true,
}

// attachAuditor attaches the consistency audit at syscall:enter: any
// audited call executed by a scheduler KC while it is stepping a
// decoupled UC is a consistency violation (the call hit the scheduler's
// kernel state, not the ULP's).
func (rt *Runtime) attachAuditor() *probe.Program {
	scheds := rt.pool.Schedulers()
	return rt.Kernel().Probes().Attach("audit", func(c *probe.Ctx) probe.Verdict {
		if !auditedSyscalls[c.ID] {
			return probe.Verdict{}
		}
		for _, s := range scheds {
			if s.Task() == c.Task {
				if b := s.Running(); b != nil {
					rt.violations = append(rt.violations, Violation{ULP: b.Name(), Syscall: c.Site, PID: c.Task.TGID()})
				}
				break
			}
		}
		return probe.Verdict{}
	}, probe.PSyscallEnter)
}

// ULP is one user-level process: the PiP namespace its image was
// loaded into and the BLT that runs it. The BLT's methods (KC, Name,
// Done, ExitStatus, Orphaned, ...) are the ULP's.
type ULP struct {
	pip.Namespace
	*blt.BLT
	rt *Runtime
}

// SpawnOpts parameterizes Spawn.
type SpawnOpts struct {
	Name      string
	Arg       interface{}
	Scheduler int // home scheduler index; -1 for round-robin
	// ShareKCWith attaches this ULP to an existing ULP's original KC
	// (the §VII M:N extension); they then share kernel state.
	ShareKCWith *ULP
}

// Spawn loads img into a fresh namespace of the PiP root (pip.Root.Load
// privatizes its variables and allocates its TLS block) and starts it as
// a ULP: a BLT whose original KC is a PiP process-mode clone of the
// root. Must be called from the root task's context.
func (rt *Runtime) Spawn(img *loader.Image, opts SpawnOpts) (*ULP, error) {
	ns, err := rt.root.Load(img)
	if err != nil {
		return nil, err
	}
	u := &ULP{Namespace: ns, rt: rt}
	if opts.Name == "" {
		opts.Name = fmt.Sprintf("%s.%d", img.Name, u.Rank)
	}
	var host *blt.KCHost
	if opts.ShareKCWith != nil {
		host = opts.ShareKCWith.Host()
	}
	b, err := rt.pool.Spawn(func(b *blt.BLT) int {
		// The body may start before Spawn's caller resumes; bind the
		// BLT handle here so Env methods work from the first line.
		u.BLT = b
		// "TLS register content is saved at the time of creation of a
		// ULP": the original KC points at this ULP's descriptor once,
		// up front, while coupled.
		b.Carrier().LoadTLS(u.TLSBase())
		return img.Main(&Env{ULP: u, U: u, Arg: opts.Arg})
	}, blt.SpawnOpts{Name: opts.Name, TLSBase: u.TLSBase(), Host: host, Scheduler: opts.Scheduler})
	if err != nil {
		return nil, err
	}
	u.BLT = b
	rt.ulps = append(rt.ulps, u)
	return u, nil
}

// WaitAll reaps every distinct original KC via wait(2) and returns the
// per-ULP exit statuses in rank order. It terminates even under fault
// injection: a signal interrupting the wait is retried, and a
// fault-killed KC is reaped like any exited process (its surviving ULPs
// finish decoupled and report their statuses here all the same — see
// ULP.Orphaned).
func (rt *Runtime) WaitAll() ([]int, error) {
	hosts := map[*blt.KCHost]bool{}
	for _, u := range rt.ulps {
		hosts[u.Host()] = true
	}
	for range hosts {
		for {
			_, _, err := rt.RootTask().Wait()
			if err == kernel.ErrInterrupted {
				continue
			}
			if err != nil {
				return nil, err
			}
			break
		}
	}
	// A fault-killed KC can be reaped while its orphaned ULPs still run
	// decoupled on the schedulers; wait for them so the statuses below
	// are final. Fault-free runs never enter the sleep.
	for _, u := range rt.ulps {
		for !u.Done() {
			rt.RootTask().Nanosleep(10 * sim.Microsecond)
		}
	}
	statuses := make([]int, len(rt.ulps))
	for i, u := range rt.ulps {
		statuses[i] = u.ExitStatus()
	}
	return statuses, nil
}

// Shutdown stops the pool's schedulers. Call after WaitAll.
func (rt *Runtime) Shutdown() { rt.pool.Shutdown(rt.RootTask()) }

// Env is the environment handle a ULP program's Main receives (as its
// loader.MainFunc argument; Program does the type assertion). It embeds
// the ULP, so the namespace's lookups (SymbolAddr, TLSAddr, Export,
// Import) and the BLT's primitives (Carrier, Couple, Decouple, Coupled,
// Yield, YieldUntil, Exec) are its methods. U is the same ULP.
type Env struct {
	*ULP
	U   *ULP
	Arg interface{}
}

// Program builds the image of a ULP program whose Main is main: 4 KiB
// of PIE text, one privatized 64-byte variable named state and a
// thread-local errno.
func Program(name string, main func(env *Env) int) *loader.Image {
	return &loader.Image{
		Name: name, PIE: true, TextSize: 4096,
		Symbols: []loader.Symbol{
			{Name: "state", Size: 64},
			{Name: "errno", Size: 8, TLS: true},
		},
		Main: func(env interface{}) int { return main(env.(*Env)) },
	}
}

// Transient-retry parameters for the Env system-call wrappers: an
// injected EINTR or EAGAIN is retried up to syscallRetries times with
// exponentially growing user-mode backoff, starting at retryBackoffBase.
// Non-transient errors (ENOSPC, EBADF, ...) surface immediately.
const (
	syscallRetries   = 8
	retryBackoffBase = 1 * sim.Microsecond
)

// transient reports whether err is worth retrying.
func transient(err error) bool {
	return errors.Is(err, kernel.ErrInterrupted) || errors.Is(err, kernel.ErrTryAgain)
}

// execRetry runs op coupled, retrying transient failures with bounded
// exponential backoff burned on the current carrier (the ULP stays
// schedulable at user level between attempts). The returned error is
// op's last error, or the coupling error when the original KC is gone.
func (e *Env) execRetry(op func(kc *kernel.Task) error) error {
	backoff := retryBackoffBase
	var err error
	for attempt := 0; ; attempt++ {
		execErr := e.Exec(func(kc *kernel.Task) { err = op(kc) })
		if execErr != nil {
			return execErr
		}
		if err == nil || !transient(err) || attempt == syscallRetries {
			return err
		}
		e.Carrier().Compute(backoff)
		if backoff *= 2; backoff > 128*retryBackoffBase {
			backoff = 128 * retryBackoffBase
		}
	}
}

// Getpid is a consistency-preserving getpid(): it couples, calls, and
// restores the previous coupling state.
func (e *Env) Getpid() (pid int) {
	e.Exec(func(kc *kernel.Task) { pid = kc.Getpid() })
	return pid
}

// GetpidRaw issues getpid() on whatever KC carries the ULP right now —
// the paper's inconsistency example, kept for demonstration and tests.
func (e *Env) GetpidRaw() int { return e.Carrier().Getpid() }

// Open opens a file consistently (on the original KC), retrying
// transient injected failures (EINTR/EAGAIN).
func (e *Env) Open(path string, flags fs.OpenFlags) (fd int, err error) {
	err = e.execRetry(func(kc *kernel.Task) error {
		var opErr error
		fd, opErr = kc.Open(path, flags)
		return opErr
	})
	return fd, err
}

// Write writes to an fd consistently, retrying transient injected
// failures. remote is chosen by the runtime: while the open-write-close
// executes on the dedicated syscall core, the buffer streams from the
// program core (the Fig. 7 cache effect).
func (e *Env) Write(fd int, data []byte) (n int, err error) {
	err = e.execRetry(func(kc *kernel.Task) error {
		var opErr error
		n, opErr = kc.Write(fd, data, true)
		return opErr
	})
	return n, err
}

// Read reads from an fd consistently, retrying transient injected
// failures.
func (e *Env) Read(fd int, buf []byte) (n int, err error) {
	err = e.execRetry(func(kc *kernel.Task) error {
		var opErr error
		n, opErr = kc.Read(fd, buf)
		return opErr
	})
	return n, err
}

// Close closes an fd consistently.
func (e *Env) Close(fd int) (err error) {
	err = e.execRetry(func(kc *kernel.Task) error { return kc.Close(fd) })
	return err
}

// MemRead reads the shared address space without a system-call.
func (e *Env) MemRead(va uint64, buf []byte) error { return e.Carrier().MemRead(va, buf) }

// MemWrite writes the shared address space without a system-call.
func (e *Env) MemWrite(va uint64, data []byte) error { return e.Carrier().MemWrite(va, data) }

// Compute burns pure user CPU time on the current carrier. When the
// runtime has a preemption quantum and the ULP is decoupled, the burn is
// sliced: every quantum the ULP takes a forced user-level yield, so one
// compute-bound ULP cannot monopolize a program core (the Shinjuku-style
// preemption of Config.PreemptQuantum). Coupled code is never preempted
// — it is a KLT, subject only to the kernel.
func (e *Env) Compute(d sim.Duration) {
	q := e.rt.cfg.PreemptQuantum
	if q <= 0 || e.Coupled() {
		e.Carrier().Compute(d)
		return
	}
	for d > 0 {
		slice := d
		if slice > q {
			slice = q
		}
		e.Carrier().Compute(slice)
		d -= slice
		if d > 0 {
			e.Yield() // preemption point
		}
	}
}

// SetSigMask sets the ULP's signal mask. Under ucontext-mode switching
// the mask follows the UC between kernel contexts; under fcontext it
// only applies while coupled.
func (e *Env) SetSigMask(mask uint64) {
	e.BLT.SetSigMask(mask)
	if e.Coupled() || e.rt.cfg.Signals == UcontextMode {
		e.Carrier().SetSigmaskRaw(mask)
	}
}

// SignalULP sends a signal aimed at a ULP. With fcontext switching the
// kernel cannot tell UCs apart, so the signal lands on whatever KC
// currently carries the UC — the scheduler's disposition if decoupled
// (the §VII caveat). The sender task pays the kill(2) cost.
func (rt *Runtime) SignalULP(sender *kernel.Task, u *ULP, sig int) error {
	target := u.KC()
	if !u.Coupled() {
		// Decoupled: the signal goes to the carrier, the scheduler
		// running the UC. A queued UC has none, so the signal stays on
		// its KC: a terminal-originated signal to the "process" still
		// reaches the KC's disposition; that part is safe.
		for _, s := range rt.pool.Schedulers() {
			if s.Running() == u.BLT {
				target = s.Task()
				break
			}
		}
	}
	return sender.Kill(target.PID(), sig)
}
