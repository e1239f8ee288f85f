// Package ulppip is the public API of the ULP-PiP reproduction: Bi-Level
// Threads and User-Level Processes over address-space sharing (Hori,
// Gerofi, Ishikawa — IPPS 2020), rebuilt on a deterministic simulated
// machine.
//
// The package re-exports the stable surface of the internal packages:
//
//	sim     — the discrete-event engine (virtual time)
//	arch    — the two evaluation machines, Wallaby (x86_64) and
//	          Albireo (AArch64), with their calibrated cost models
//	kernel  — the simulated OS: kernel contexts, cores, system-calls
//	loader  — PIE images and dlmopen-style namespaces
//	pip     — Process-in-Process address-space sharing
//	blt     — bi-level threads (couple/decouple)
//	core    — the ULP-PiP runtime (user-level processes)
//	aio     — the POSIX AIO baseline
//	bench   — the paper's tables, figures and ablations
//
// Quick start:
//
//	s := ulppip.NewSim(ulppip.Wallaby())
//	ulppip.Boot(s.Kernel, ulppip.Config{
//	        ProgCores:    []int{0, 1},
//	        SyscallCores: []int{2, 3},
//	        Idle:         ulppip.IdleBusyWait,
//	}, func(rt *ulppip.Runtime) int {
//	        rt.Spawn(prog, ulppip.ULPSpawnOpts{Scheduler: -1})
//	        rt.WaitAll()
//	        rt.Shutdown()
//	        return 0
//	})
//	s.Run()
package ulppip

import (
	"repro/internal/aio"
	"repro/internal/arch"
	"repro/internal/blt"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/fault"
	"repro/internal/fs"
	"repro/internal/kernel"
	"repro/internal/loader"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/pip"
	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/tasking"
	"repro/internal/timeline"
)

// Simulation engine.
type (
	// Engine is the deterministic discrete-event simulator.
	Engine = sim.Engine
	// Time is a virtual-time instant (picoseconds).
	Time = sim.Time
	// Duration is a virtual-time span (picoseconds).
	Duration = sim.Duration
	// Tracer records engine and runtime events.
	Tracer = sim.Tracer
	// TraceEvent is one rendered tracer record.
	TraceEvent = sim.TraceEvent
	// TraceMeta attributes an event to a task, PID and core.
	TraceMeta = sim.Meta
	// TracePhase distinguishes logs, instants and span begin/end pairs.
	TracePhase = sim.Phase
)

// Trace phases.
const (
	TracePhLog     = sim.PhLog
	TracePhInstant = sim.PhInstant
	TracePhBegin   = sim.PhBegin
	TracePhEnd     = sim.PhEnd
)

// NewTracer creates a bounded event tracer (install with
// Engine.SetTracer; export with Tracer.Dump or Tracer.DumpChrome).
var NewTracer = sim.NewTracer

// Duration units.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Machine models and kernel.
type (
	// Machine is one simulated evaluation platform.
	Machine = arch.Machine
	// CostModel is a machine's primitive-cost table.
	CostModel = arch.CostModel
	// Kernel is the simulated operating system.
	Kernel = kernel.Kernel
	// Task is a kernel task — the paper's kernel context (KC).
	Task = kernel.Task
	// OpenFlags are open(2) flags for the simulated tmpfs.
	OpenFlags = fs.OpenFlags
)

// Machines.
var (
	// Wallaby is the paper's x86_64 machine (Xeon E5-2650 v2).
	Wallaby = arch.Wallaby
	// Albireo is the paper's AArch64 machine (Opteron A1170).
	Albireo = arch.Albireo
)

// File open flags.
const (
	ORdOnly = fs.ORdOnly
	OWrOnly = fs.OWrOnly
	ORdWr   = fs.ORdWr
	OCreate = fs.OCreate
	OTrunc  = fs.OTrunc
	OAppend = fs.OAppend
)

// Programs and PiP.
type (
	// Image is a PIE program image.
	Image = loader.Image
	// Symbol declares a static (or thread-local) program variable.
	Symbol = loader.Symbol
	// MainFunc is a program entry point.
	MainFunc = loader.MainFunc
	// PiPRoot is a Process-in-Process root process.
	PiPRoot = pip.Root
	// PiPProcess is a spawned PiP task.
	PiPProcess = pip.Process
	// PiPEnv is the environment a plain PiP program's Main receives.
	PiPEnv = pip.Env
	// PiPBarrier synchronizes PiP tasks through the shared space.
	PiPBarrier = pip.Barrier
)

// PiP execution modes.
const (
	PiPProcessMode = pip.ProcessMode
	PiPThreadMode  = pip.ThreadMode
)

// PiPLaunch starts a PiP root process.
var PiPLaunch = pip.Launch

// NewPiPBarrier allocates a barrier in the calling task's address space.
var NewPiPBarrier = pip.NewBarrier

// Bi-level threads.
type (
	// BLT is a bi-level thread.
	BLT = blt.BLT
	// BLTPool manages scheduler BLTs and spawned BLTs.
	BLTPool = blt.Pool
	// BLTConfig configures a pool.
	BLTConfig = blt.Config
	// BLTSpawnOpts parameterizes BLTPool.Spawn.
	BLTSpawnOpts = blt.SpawnOpts
	// IdlePolicy selects how idle KCs wait.
	IdlePolicy = blt.IdlePolicy
)

// Idle policies (paper §VI-C).
const (
	IdleBusyWait = blt.BusyWait
	IdleBlocking = blt.Blocking
)

// NewBLTPool creates a BLT pool owned by the creator task.
var NewBLTPool = blt.NewPool

// ULP-PiP runtime (the paper's contribution).
type (
	// Runtime is a live ULP-PiP instance.
	Runtime = core.Runtime
	// Config deploys the runtime over program and syscall cores.
	Config = core.Config
	// ULP is a user-level process.
	ULP = core.ULP
	// Env is the handle a ULP program's Main receives.
	Env = core.Env
	// ULPSpawnOpts parameterizes Runtime.Spawn.
	ULPSpawnOpts = core.SpawnOpts
	// SignalMode selects fcontext/ucontext-style switching (§VII).
	SignalMode = core.SignalMode
	// Violation is one recorded system-call consistency violation.
	Violation = core.Violation
)

// Signal modes.
const (
	FcontextMode = core.FcontextMode
	UcontextMode = core.UcontextMode
)

// Boot creates a ULP-PiP runtime inside a fresh PiP root.
var Boot = core.Boot

// MPI-like message passing over ULP ranks (the paper's §III motivation).
type (
	// MPIWorld is one communicator of ULP ranks.
	MPIWorld = mpi.World
	// MPIRank is one rank's handle inside its program.
	MPIRank = mpi.Rank
	// MPIConfig deploys a world over program/syscall cores.
	MPIConfig = mpi.Config
	// MPIOp is a reduction operator.
	MPIOp = mpi.Op
)

// MPI constants.
const (
	MPIAnySource = mpi.AnySource
	MPIAnyTag    = mpi.AnyTag
	MPISum       = mpi.OpSum
	MPIMax       = mpi.OpMax
	MPIMin       = mpi.OpMin
)

// MPIRun boots a runtime and runs size ranks of the given program.
var MPIRun = mpi.Run

// BOLT-style task parallelism over BLT workers (§III: OpenMP over ULTs).
type (
	// TaskRuntime is a worker pool of BLTs serving a task queue.
	TaskRuntime = tasking.Runtime
	// TaskConfig configures the pool.
	TaskConfig = tasking.Config
	// TaskCtx is the handle a running task receives.
	TaskCtx = tasking.TaskCtx
	// TaskGroup is a nested fork-join group (taskgroup/taskwait).
	TaskGroup = tasking.Group
	// TaskFunc is a task body.
	TaskFunc = tasking.Func
)

// NewTaskRuntime creates a tasking runtime owned by the creator task.
var NewTaskRuntime = tasking.New

// Scheduling timelines (attach with Timeline.Attach(kernel.Probes())).
type (
	// Timeline accumulates per-core occupancy spans.
	Timeline = timeline.Recorder
	// TimelineSpan is one contiguous occupancy of a core by a task.
	TimelineSpan = timeline.Span
)

// NewTimeline creates an empty timeline recorder.
var NewTimeline = timeline.New

// AIO baseline.
type (
	// AIOContext is a glibc-style asynchronous I/O context.
	AIOContext = aio.Context
	// AIORequest is one asynchronous operation (aiocb).
	AIORequest = aio.Request
)

// NewAIO creates an AIO context owned by a task.
var NewAIO = aio.New

// AIOInProgress is the EINPROGRESS sentinel returned by AIORequest.Return
// before the operation completes.
var AIOInProgress = aio.ErrInProgress

// Deterministic fault injection (attach with
// FaultPlane.Attach(kernel.Probes()); see DESIGN.md §6).
type (
	// FaultSpec is one fault-injection rule: a site, a firing rule and
	// an optional task-name scope.
	FaultSpec = fault.Spec
	// FaultPlane is a seeded deterministic set of fault specs.
	FaultPlane = fault.Plane
)

// NewFaultPlane builds a fault plane from a seed and specs.
var NewFaultPlane = fault.NewPlane

// ParseFaultSpecs parses the ulpsim -faults flag syntax.
var ParseFaultSpecs = fault.ParseSpecs

// Fault-injection sites.
const (
	FaultOpen          = probe.SiteOpen
	FaultWrite         = probe.SiteWrite
	FaultRead          = probe.SiteRead
	FaultFutexWait     = probe.SiteFutexWait
	FaultFutexSpurious = probe.SiteFutexSpurious
	FaultFutexLostWake = probe.SiteFutexLostWake
	FaultKCKill        = probe.SiteKCKill
	FaultSchedKill     = probe.SiteSchedKill
	FaultAIOHelperKill = probe.SiteAIOHelperKill
	FaultSchedDelay    = probe.SiteSchedDelay
	FaultFSSlow        = probe.SiteFSSlow
)

// Deterministic metrics plane (install with Kernel.SetMetrics; see
// DESIGN.md §7).
type (
	// MetricsRegistry holds named counters, gauges and histograms.
	MetricsRegistry = metrics.Registry
	// MetricsCounter is a monotonically increasing count.
	MetricsCounter = metrics.Counter
	// MetricsGauge is an instantaneous value with max tracking.
	MetricsGauge = metrics.Gauge
	// MetricsHistogram is a log₂-bucketed latency/depth distribution.
	MetricsHistogram = metrics.Histogram
	// MetricsSample is one flattened metric value from Snapshot.
	MetricsSample = metrics.Sample
)

// NewMetricsRegistry creates an empty metrics registry.
var NewMetricsRegistry = metrics.NewRegistry

// Controlled-scheduling exploration (install a Chooser with
// Engine.SetChooser; see DESIGN.md §8).
type (
	// Chooser resolves same-instant event ties; the engine consults it
	// whenever more than one event is enabled at the earliest timestamp.
	Chooser = sim.Chooser
	// ChoiceCandidate describes one tied event offered to a Chooser.
	ChoiceCandidate = sim.Candidate
	// ExploreScenario is a replayable workload for the explorer.
	ExploreScenario = explore.Scenario
	// ExploreConfig selects the exploration policy and bounds.
	ExploreConfig = explore.Config
	// ExploreResult summarizes an exploration, including any shrunk
	// failing schedule.
	ExploreResult = explore.Result
	// ExplorePolicy is the schedule-search strategy.
	ExplorePolicy = explore.Policy
)

// Exploration policies.
const (
	ExploreRandomWalk = explore.RandomWalk
	ExploreDFS        = explore.DFS
)

// Explore searches a scenario's schedule space under a policy.
var Explore = explore.Explore

// ExploreReplay re-executes a scenario under a recorded decision prefix.
var ExploreReplay = explore.Replay

// ExploreScenarioByName builds one of the stock exploration scenarios.
var ExploreScenarioByName = explore.ByName

// Invariant oracles usable outside the explorer as well.
var (
	// CheckFutexClaims checks the kill-safe futex wake-claim law.
	CheckFutexClaims = explore.CheckFutexClaims
	// CheckFutexConservation checks the full futex ledger at quiescence.
	CheckFutexConservation = explore.CheckFutexConservation
	// CheckTimelineConservation checks spans against per-core busy time.
	CheckTimelineConservation = explore.CheckTimelineConservation
)

// Sim bundles an engine with a kernel for one machine — the usual entry
// point.
type Sim struct {
	Engine *Engine
	Kernel *Kernel
}

// NewSim builds a simulated machine instance.
func NewSim(m *Machine) *Sim {
	e := sim.New()
	return &Sim{Engine: e, Kernel: kernel.New(e, m)}
}

// Run drives the simulation until all work completes.
func (s *Sim) Run() error { return s.Engine.Run() }

// Now reports the current virtual time.
func (s *Sim) Now() Time { return s.Engine.Now() }
