package blt

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/uctx"
)

// IdlePolicy selects how an idle KC waits (paper §VI-C): spinning on a
// flag, or blocked on a futex-based semaphore.
type IdlePolicy int

// Idle policies.
const (
	BusyWait IdlePolicy = iota
	Blocking
)

// String implements fmt.Stringer.
func (p IdlePolicy) String() string {
	if p == Blocking {
		return "BLOCKING"
	}
	return "BUSYWAIT"
}

// Config describes a BLT pool, mirroring the paper's Fig. 6 scenario:
// CPU cores divided into a program partition (running scheduler BLTs
// that execute decoupled UCs) and a system-call partition (hosting the
// original KCs).
type Config struct {
	// ProgCores are the cores running user code (one scheduler each).
	ProgCores []int
	// SyscallCores host original KCs; assigned round-robin. A syscall
	// core may hold more than one KC.
	SyscallCores []int
	// Idle selects the KC idle policy.
	Idle IdlePolicy
	// SwitchTLS enables ULP semantics: schedulers load the TLS register
	// on every UC switch. Disable for plain-ULT behaviour (the paper:
	// "most ULT implementations ignore TLS variables whereas ULP
	// cannot").
	SwitchTLS bool
	// WorkStealing lets an idle scheduler steal ready UCs from peer
	// schedulers' queues before idling — interprocess work stealing
	// made trivial by the shared address space (Ouyang et al., SC'19
	// poster, cited in the paper's related work).
	WorkStealing bool
	// SwitchSigmask enables ucontext-style switching (paper §VII): the
	// scheduler saves/restores the signal mask on every UC switch,
	// paying the machine's SigmaskSwitch cost. fcontext (the default)
	// skips this, which is faster but delivers signals to the
	// scheduling KC's disposition.
	SwitchSigmask bool
}

// opFrame carries the latency clock and span id of one couple/decouple
// handshake from opEnter to opExit. Zero frame (on=false): no program
// watches the handshake's point and no tracer records its span.
type opFrame struct {
	start sim.Time
	span  uint64
	pt    probe.Point
	on    bool
}

// opEnter opens a couple/decouple handshake: starts the latency clock
// and, when tracing, a "blt.span" span on the core where the handshake
// begins. pt is the handshake's point (blt:couple or blt:decouple),
// fired with the wall latency at opExit.
func (p *Pool) opEnter(t *kernel.Task, b *BLT, name string, pt probe.Point) opFrame {
	tracing := p.kern.Tracing()
	if !p.kern.Probes().Attached(pt) && !tracing {
		return opFrame{}
	}
	f := opFrame{start: p.kern.Engine().Now(), pt: pt, on: true}
	if tracing {
		f.span = p.kern.BeginSpan(t, "blt.span", b.name, name+" "+b.name)
	}
	return f
}

// opExit closes the handshake opened by opEnter: fires the handshake
// point with the wall virtual-time latency and ends the span (on
// whatever core the handshake finished).
func (p *Pool) opExit(t *kernel.Task, b *BLT, f opFrame) {
	if !f.on {
		return
	}
	ps := p.kern.Probes()
	if ps.Attached(f.pt) {
		end := p.kern.Engine().Now()
		c := ps.Begin(f.pt, end)
		if t != nil {
			c.Task = t
		}
		c.Dur = end.Sub(f.start)
		ps.Fire(c)
	}
	p.kern.EndSpan(t, b.name, f.span)
}

// Pool manages scheduler BLTs and the BLTs they run.
type Pool struct {
	kern    *kernel.Kernel
	creator *kernel.Task
	cfg     Config
	// policy is the kernel policy's ULT half, taken at NewPool; nil
	// keeps the built-in FIFO + round-robin-steal behaviour.
	policy ULTPolicy

	scheds    []*Scheduler
	nextSched int
	nextSC    int
	blts      []*BLT
	hosts     []*KCHost

	stopped bool
}

// NewPool creates the schedulers (one kernel thread pinned to each
// program core, cloned from creator) and returns the pool. The creator
// task pays the thread-creation costs. The pool takes the ULT half of
// the kernel's installed policy now; a later install does not reach it.
func NewPool(creator *kernel.Task, cfg Config) (*Pool, error) {
	if len(cfg.ProgCores) == 0 {
		return nil, fmt.Errorf("blt: config needs at least one program core")
	}
	if len(cfg.SyscallCores) == 0 {
		return nil, fmt.Errorf("blt: config needs at least one syscall core")
	}
	p := &Pool{kern: creator.Kernel(), creator: creator, cfg: cfg}
	p.policy, _ = p.kern.SchedPolicy().(ULTPolicy)
	for i, core := range cfg.ProgCores {
		s := &Scheduler{pool: p, core: core, index: i}
		if p.policy != nil {
			// Preallocated victim-order scratch so a policy steal scan
			// allocates nothing in steady state.
			s.stealBuf = make([]int, 0, len(cfg.ProgCores))
		}
		if err := s.slot.init(p, creator, s.idleDone); err != nil {
			return nil, err
		}
		s.task = creator.ClonePinned(fmt.Sprintf("sched.c%d", core), kernel.PThreadFlags, core, s.loop)
		p.scheds = append(p.scheds, s)
	}
	return p, nil
}

// Kernel returns the kernel the pool runs on.
func (p *Pool) Kernel() *kernel.Kernel { return p.kern }

// Schedulers returns the scheduler list (one per program core).
func (p *Pool) Schedulers() []*Scheduler {
	out := make([]*Scheduler, len(p.scheds))
	copy(out, p.scheds)
	return out
}

// NumSchedulers reports the scheduler count without copying the list
// (for policy hot paths).
func (p *Pool) NumSchedulers() int { return len(p.scheds) }

// SchedulerAt returns scheduler i without copying the list (for policy
// hot paths).
func (p *Pool) SchedulerAt(i int) *Scheduler { return p.scheds[i] }

// BLTs returns all spawned BLTs in creation order.
func (p *Pool) BLTs() []*BLT {
	out := make([]*BLT, len(p.blts))
	copy(out, p.blts)
	return out
}

// DefaultStackBytes is the default UC stack reservation (demand-paged
// in the shared address space; PiP tasks default to megabyte stacks).
const DefaultStackBytes = 1 << 20

// TrampolineStackBytes is the TC stack reservation — "the stack region
// of a trampoline context can be very small" (§V-A).
const TrampolineStackBytes = 4 << 10

// SpawnOpts parameterizes Spawn.
type SpawnOpts struct {
	Name    string
	TLSBase uint64 // thread-descriptor address for ULP TLS switching
	// Host, when non-nil, attaches the new BLT to an existing original
	// KC (the §VII M:N extension: UCs with the same original KC share
	// kernel state thread-style). Nil creates a fresh KC (N:N).
	Host *KCHost
	// Scheduler pins the BLT's home scheduler index; -1 (or 0 value
	// with one scheduler) assigns round-robin.
	Scheduler int
}

// Spawn creates a BLT running body. Per the paper, a BLT is created *as
// a KLT*: a fresh UC paired with a fresh original KC (unless opts.Host
// reuses one). The creator task pays the clone cost. The returned BLT's
// termination is observed via the kernel: wait() on the pool's creator
// reaps process-mode KCs.
func (p *Pool) Spawn(body Body, opts SpawnOpts) (*BLT, error) {
	if p.stopped {
		return nil, ErrPoolStopped
	}
	if opts.Name == "" {
		opts.Name = fmt.Sprintf("blt%d", len(p.blts))
	}
	home := p.scheds[p.nextSched%len(p.scheds)]
	if opts.Scheduler >= 0 && opts.Scheduler < len(p.scheds) {
		home = p.scheds[opts.Scheduler]
	} else {
		p.nextSched++
	}
	b := &BLT{
		pool:    p,
		name:    opts.Name,
		home:    home,
		tlsBase: opts.TLSBase,
		body:    body,
	}
	// Reserve the UC stack in the shared address space: decoupled UCs
	// run on whatever KC schedules them, so the stack must be visible
	// everywhere — trivially true under address-space sharing.
	stack, err := p.creator.Space().Mmap(DefaultStackBytes, semProt,
		opts.Name+".stack", false, nil)
	if err != nil {
		return nil, err
	}
	b.stackAddr = stack
	b.uc = uctx.New(opts.Name, b.ucBody)

	host := opts.Host
	if host == nil {
		var err error
		host, err = p.newHost(opts.Name)
		if err != nil {
			return nil, err
		}
	}
	b.host = host
	if err := host.adopt(b, p.creator); err != nil {
		return nil, err
	}
	p.blts = append(p.blts, b)
	return b, nil
}

func (p *Pool) newHost(name string) (*KCHost, error) {
	core := p.cfg.SyscallCores[p.nextSC%len(p.cfg.SyscallCores)]
	p.nextSC++
	h := &KCHost{pool: p, name: name, core: core}
	if p.cfg.Idle == BusyWait {
		h.step = h.trampoline
	}
	if err := h.slot.init(p, p.creator, h.idleDone); err != nil {
		return nil, err
	}
	// The trampoline context gets its own (small) stack.
	tcStack, err := p.creator.Space().Mmap(TrampolineStackBytes, semProt,
		"tc."+name+".stack", false, nil)
	if err != nil {
		return nil, err
	}
	h.tcStack = tcStack
	h.task = p.creator.ClonePinned("kc."+name, kernel.PiPProcessFlags, core, h.main)
	h.restartable = p.kern.RestartVerdict(p.creator, h.task.Name(), 0).Delay > 0
	p.hosts = append(p.hosts, h)
	return h, nil
}

// liveScheds counts schedulers not killed by fault injection.
func (p *Pool) liveScheds() int {
	n := 0
	for _, s := range p.scheds {
		if !s.dead {
			n++
		}
	}
	return n
}

// nextLiveSched returns the first live scheduler scanning deterministically
// from the index after `from`, or nil when all are dead.
func (p *Pool) nextLiveSched(from int) *Scheduler {
	n := len(p.scheds)
	for i := 1; i <= n; i++ {
		s := p.scheds[(from+i)%n]
		if !s.dead {
			return s
		}
	}
	return nil
}

// Shutdown stops all schedulers; call it (from any running task) after
// every BLT has terminated so the engine can drain. Idempotent.
func (p *Pool) Shutdown(t *kernel.Task) {
	if p.stopped {
		return
	}
	p.stopped = true
	for _, s := range p.scheds {
		s.slot.kick(t)
	}
}

// Bounds of the BLOCKING idle slot's lost-wake recovery sleep
// (kernel.FutexSleep): the first re-check fires after idleWaitBase of
// virtual time and the timeout doubles on every consecutive timeout up
// to idleWaitMax.
const (
	idleWaitBase = 10 * sim.Microsecond
	idleWaitMax  = 1 * sim.Millisecond
)

// idleSlot implements the two idle policies over a futex word in the
// creator's address space.
type idleSlot struct {
	pool    *Pool
	word    uint64
	phase   spinPhase      // where the BUSYWAIT loop resumes (see spin)
	backoff kernel.Backoff // the BLOCKING sleep's lost-wake recovery timeout

	// spun accumulates CPU time burned busy-waiting — the power proxy
	// of the idle-policy ablation (§VII: "busy-waiting consumes more
	// power").
	spun sim.Duration

	// ready is the owner's wake condition and step the BUSYWAIT pass,
	// both bound once at creation; t is the task waiting and yield its
	// sched_yield in flight. A wait allocates nothing.
	ready func() bool
	step  func() bool
	t     *kernel.Task
	yield kernel.Spinner
}

// spinPhase is where the next pass of the BUSYWAIT loop starts.
type spinPhase uint8

const (
	spinPoll   spinPhase = iota // test the condition; charge a poll
	spinPolled                  // the poll charge returned
	spinYield                   // in sched_yield
)

func (s *idleSlot) init(p *Pool, creator *kernel.Task, ready func() bool) error {
	s.pool = p
	s.ready = ready
	s.step = s.spin
	s.backoff = kernel.Backoff{Base: idleWaitBase, Max: idleWaitMax}
	addr, err := creator.Space().Mmap(8, semProt, "blt.idle", true, nil)
	if err != nil {
		return err
	}
	s.word = addr
	return nil
}

// wait idles the task until the slot's condition holds, per the pool's
// policy.
func (s *idleSlot) wait(t *kernel.Task) {
	if s.pool.cfg.Idle == BusyWait {
		s.t = t
		t.Spin(s.step)
		s.t = nil
		return
	}
	s.pass(t)
}

// pass runs the wait up to its next suspension, inside a spin step of
// t's (the trampoline): under BUSYWAIT one pass of the spin, which
// reports whether the wait is over; under BLOCKING, which runs no spin,
// the whole futex wait.
func (s *idleSlot) pass(t *kernel.Task) bool {
	if s.pool.cfg.Idle == BusyWait {
		s.t = t
		return s.spin()
	}
	for !s.ready() {
		// A kick aimed at this task may be dropped: the recovery sleep
		// re-checks the condition on a backoff timer.
		if err := t.FutexSleep(s.word, 0, &s.backoff); err != nil {
			panic(fmt.Sprintf("blt: idle futex: %v", err))
		}
		// Consume the kick so the next wait sleeps again.
		t.Space().WriteU64(s.word, 0, nil)
	}
	return true
}

// spin is one pass of the BUSYWAIT loop, run as the waiting task's spin
// continuation (kernel.Task.Spin). Table I Seq.7: the idle KC "[yield or
// suspend]"s — each poll period ends in a sched_yield so that several
// busy-waiting KCs can share one syscall core (Fig. 6: "a CPU core for
// executing system-calls may have more than one KCs"). A pass ends at
// the poll charge or at a sched_yield stage; what follows a suspension,
// the spun accounting included, runs at the start of the next pass,
// once the charge has elapsed — the idle ablation reads spun while KCs
// are still spinning.
func (s *idleSlot) spin() bool {
	costs := &s.pool.kern.Machine().Costs
	poll := costs.SpinNotice - costs.SchedYieldNoSwitch
	if poll < 0 {
		poll = 0
	}
	for {
		switch s.phase {
		case spinPoll:
			if s.ready() {
				return true
			}
			s.phase = spinPolled
			s.t.Charge(poll)
			return false
		case spinPolled:
			s.spun += poll
			s.phase = spinYield
		default: // spinYield
			if !s.yield.SchedYield(s.t) {
				return false
			}
			s.spun += costs.SchedYieldNoSwitch
			s.phase = spinPoll
		}
	}
}

// kick makes a sleeping waiter re-check its condition. The caller pays
// the wake cost (an atomic store under BUSYWAIT, futex syscall under
// BLOCKING).
func (s *idleSlot) kick(t *kernel.Task) {
	costs := s.pool.kern.Machine().Costs
	if s.pool.cfg.Idle == BusyWait {
		t.Charge(costs.AtomicOp)
		return
	}
	t.Space().WriteU64(s.word, 1, nil)
	t.FutexWake(s.word, 1)
}

// Spun reports the time burned busy-waiting on this slot.
func (s *idleSlot) Spun() sim.Duration { return s.spun }
