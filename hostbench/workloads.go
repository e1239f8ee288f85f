package main

import (
	"fmt"
	"strings"

	"repro/internal/arch"
	"repro/internal/bench"
	"repro/internal/blt"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/loader"
	"repro/internal/metrics"
	"repro/internal/probe"
	"repro/internal/sim"
	usync "repro/internal/sync"
)

// op is one unit of benchmark work: it builds fresh simulated machines,
// runs them to completion and summarises their virtual outcome in a
// digest. Virtual time is deterministic, so ops with equal keys must
// produce equal digests, on any host and with tracing on or off.
type op struct {
	key string
	run func(rs *runState) (digest string, err error)
}

// runState is what one pass hands its ops: the span recorder and the
// metrics registry (both nil in an untraced pass) and the scale rows the
// pass has produced so far.
type runState struct {
	tr        *tracer
	reg       *metrics.Registry
	scaleRows []bench.ScaleRow
}

// workload is one closed-loop input mix: a single driver runs its ops
// back to back, each starting when the previous one has finished.
type workload struct {
	name string
	// op returns the i-th op of the sequence the seed selects.
	op func(seed uint64, i int) op
	// warmup returns the ops set-up runs before timing starts.
	warmup func(seed uint64) []op
	// nominal is the number of timed ops, sized for a run of
	// nominalSeconds on a 2-vCPU Xeon; traced is the number of ops in
	// each pass of a traced run.
	nominal, traced int
}

// ops returns the first n ops of the sequence.
func (w *workload) ops(seed uint64, n int) []op {
	out := make([]op, n)
	for i := range out {
		out[i] = w.op(seed, i)
	}
	return out
}

// leading makes the warm-up the first n ops of the timed sequence, so
// each of them also fixes the digest its later repeats must match.
func (w *workload) leading(n int) func(uint64) []op {
	return func(seed uint64) []op { return w.ops(seed, n) }
}

// workloads returns the benchmark's workloads at nominal size, or shrunk
// to a few milliseconds each for the unit tests.
func workloads(tiny bool) []*workload {
	return []*workload{paperWorkload(tiny), ulpSwitchWorkload(tiny), syncFutexWorkload(tiny),
		scaleWorkload(tiny), chaosWorkload(tiny)}
}

// machines are the two simulated machines every workload runs on; the
// models are read-only, so runs share them.
var machines = arch.Machines()

// subSeed derives an independent seed for lane i of a seeded input.
func subSeed(seed uint64, i int) uint64 { return sim.NewRNG(seed ^ uint64(i)<<32).Uint64() }

// paperWorkload: serial passes of the full `ulpbench -exp all` set, what
// users run to regenerate the paper. Every optional plane is off, so it
// times the nil-gated paths; ULP switching is a small share of it.
func paperWorkload(tiny bool) *workload {
	w := &workload{
		name:    "paper",
		op:      func(seed uint64, i int) op { return paperPass(subSeed(seed, i)) },
		nominal: 32, traced: 4,
	}
	if tiny {
		w.nominal, w.traced = 1, 1
	}
	w.warmup = w.leading(1)
	return w
}

// ulpSwitchWorkload: user-level switching. ULP yields and couple/decouple
// handoffs do nearly all the work; futex, spawn and fs almost none.
func ulpSwitchWorkload(tiny bool) *workload {
	ulps, iters := 64, 64
	w := &workload{
		name:    "ulp-switch",
		nominal: 104, traced: 12,
	}
	if tiny {
		ulps, iters, w.nominal, w.traced = 8, 4, 2, 2
	}
	// Ops cycle through four inputs per machine, so a run's time is an
	// average over several seeded getpid placements, not one.
	w.op = func(seed uint64, i int) op {
		return ulpSwitchOp(machines[i%2], subSeed(seed, (i/2)%4), ulps, iters)
	}
	w.warmup = w.leading(2)
	return w
}

// ulpSwitchOp runs decoupled ULPs over two scheduler cores (BUSYWAIT,
// syscall cores 2-3). Each iteration is 16 calls: 15 user-level yields
// and one consistent getpid (couple, getpid on the original KC,
// decouple), at a position within the iteration the seed picks per ULP.
func ulpSwitchOp(m *arch.Machine, seed uint64, ulps, iters int) op {
	key := fmt.Sprintf("ulp-switch/%s/ulps=%d/iters=%d/seed=%d", m.Name, ulps, iters, seed)
	return op{key: key, run: func(rs *runState) (string, error) {
		tr := rs.tr
		mismatches := 0
		img := simpleImage("switch", func(envI interface{}) int {
			env := envI.(*core.Env)
			at := env.Arg.(int)
			env.Decouple()
			for j := 0; j < iters; j++ {
				for c := 0; c < 16; c++ {
					if c != at {
						sp := tr.begin(callCoreYield)
						env.Yield()
						tr.end(sp)
						continue
					}
					pid := 0
					sp := tr.begin(callCoreGetpid)
					err := env.Exec(func(kc *kernel.Task) {
						ks := tr.begin(callKernelGetpid)
						pid = kc.Getpid()
						tr.end(ks)
					})
					tr.end(sp)
					if err != nil || pid != env.U.KC().TGID() {
						mismatches++
					}
				}
			}
			env.Couple()
			return 0
		})
		e := sim.New()
		k := kernel.New(e, m)
		if rs.reg != nil {
			k.SetMetrics(rs.reg)
		}
		var bodyErr error
		_, err := core.Boot(k, core.Config{ProgCores: []int{0, 1}, SyscallCores: []int{2, 3}, Idle: blt.BusyWait},
			func(rt *core.Runtime) int {
				r := sim.NewRNG(seed)
				for u := 0; u < ulps; u++ {
					sp := tr.begin(callCoreSpawn)
					_, err := rt.Spawn(img, core.SpawnOpts{Scheduler: -1, Arg: r.Intn(16)})
					tr.end(sp)
					if err != nil {
						bodyErr = err
						return 1
					}
				}
				sp := tr.begin(callCoreWaitAll)
				statuses, err := rt.WaitAll()
				tr.end(sp)
				for _, s := range statuses {
					if s != 0 && err == nil {
						err = fmt.Errorf("ULP exit statuses %v, want all 0", statuses)
					}
				}
				bodyErr = err
				rt.Shutdown()
				return 0
			})
		if err != nil {
			return "", err
		}
		if err := runEngine(tr, e); err != nil {
			return "", err
		}
		switch {
		case bodyErr != nil:
			return "", bodyErr
		case mismatches != 0:
			return "", fmt.Errorf("%d coupled getpids saw the wrong pid", mismatches)
		}
		return fmt.Sprintf("end=%d syscalls=%d ctxsw=%d", int64(e.Now()), k.Syscalls(), k.ContextSwitches()), nil
	}}
}

// simpleImage is a minimal PIE program image whose Main is fn.
func simpleImage(name string, fn loader.MainFunc) *loader.Image {
	return &loader.Image{
		Name: name, PIE: true, TextSize: 4096,
		Symbols: []loader.Symbol{{Name: "state", Size: 64}, {Name: "errno", Size: 8, TLS: true}},
		Main:    fn,
	}
}

// runEngine drives a simulation to completion inside a sim.run span.
func runEngine(tr *tracer, e *sim.Engine) error {
	sp := tr.begin(callSimRun)
	err := e.Run()
	tr.end(sp)
	return err
}

// syncFutexWorkload: the futex layer used two ways. Semaphore ping-pong
// churns the futex table; the adaptive and MCS locks keep long queues
// populated. There is no user-level switching in it.
func syncFutexWorkload(tiny bool) *workload {
	pairs, trips, threads, acqs, barrier := 16, 1000, 64, 500, 500
	w := &workload{
		name:    "sync-futex",
		nominal: 108, traced: 12,
	}
	if tiny {
		pairs, trips, threads, acqs, barrier = 2, 50, 8, 50, 25
		w.nominal, w.traced = 6, 6
	}
	// The sequence cycles through six ops: semaphore ping-pong, the
	// adaptive futex mutex and the MCS lock, each on both machines; each
	// round of six takes the next of six inputs. How often the futex
	// mutex sleeps swings with the think times (from 800 to 42,000
	// system-calls an op), so a run's time is an average over six seeded
	// sets of them, not one or two.
	w.op = func(seed uint64, i int) op {
		m, seed := machines[i%2], subSeed(seed, (i/6)%6)
		switch (i / 2) % 3 {
		case 0:
			return semPingPongOp(m, seed, pairs, trips)
		case 1:
			return lockOp(m, seed, "futex", threads, acqs, barrier)
		default:
			return lockOp(m, seed, "mcs", threads, acqs, barrier)
		}
	}
	w.warmup = w.leading(6)
	return w
}

// semPingPongOp runs kernel-thread pairs on four cores that ping-pong
// through two semaphores. Every wait finds the count at zero and sleeps
// as the word's first sleeper, so the futex table creates and drops an
// entry each round. The seed picks each pair's think time.
func semPingPongOp(m *arch.Machine, seed uint64, pairs, trips int) op {
	key := fmt.Sprintf("sync-futex/%s/sem/pairs=%d/trips=%d/seed=%d", m.Name, pairs, trips, seed)
	return op{key: key, run: func(rs *runState) (string, error) {
		tr := rs.tr
		failures := 0
		wait := func(s *kernel.Semaphore, t *kernel.Task) {
			sp := tr.begin(callKernelSemWait)
			if s.Wait(t) != nil {
				failures++
			}
			tr.end(sp)
		}
		post := func(s *kernel.Semaphore, t *kernel.Task) {
			sp := tr.begin(callKernelSemPost)
			if s.Post(t) != nil {
				failures++
			}
			tr.end(sp)
		}
		return runRoot(rs, m, func(root *kernel.Task) error {
			r := sim.NewRNG(seed)
			var kids []*kernel.Task
			for p := 0; p < pairs; p++ {
				ping, err := root.NewSemaphore(0)
				if err != nil {
					return err
				}
				pong, err := root.NewSemaphore(0)
				if err != nil {
					return err
				}
				think := r.Duration(100*sim.Nanosecond, 600*sim.Nanosecond)
				kids = append(kids,
					clone(tr, root, 2*p%4, func(t *kernel.Task) int {
						for i := 0; i < trips; i++ {
							post(ping, t)
							wait(pong, t)
							t.Compute(think)
						}
						return 0
					}),
					clone(tr, root, (2*p+1)%4, func(t *kernel.Task) int {
						for i := 0; i < trips; i++ {
							wait(ping, t)
							post(pong, t)
						}
						return 0
					}))
			}
			if err := joinAll(tr, root, kids); err != nil {
				return err
			}
			if failures != 0 {
				return fmt.Errorf("%d semaphore operations failed", failures)
			}
			return nil
		})
	}}
}

// lockOp runs threads on four cores that contend for one lock, each
// acquiring it acqs times around a 2µs critical section that increments
// a shared counter in simulated memory; a final count short of
// threads*acqs means mutual exclusion failed. Every barrier acquisitions
// the threads meet at a condition-variable barrier whose Broadcast
// requeues the sleepers onto the barrier mutex. The seed picks each
// thread's time outside the critical section.
func lockOp(m *arch.Machine, seed uint64, lock string, threads, acqs, barrier int) op {
	key := fmt.Sprintf("sync-futex/%s/%s/threads=%d/acqs=%d/barrier=%d/seed=%d", m.Name, lock, threads, acqs, barrier, seed)
	return op{key: key, run: func(rs *runState) (string, error) {
		tr := rs.tr
		return runRoot(rs, m, func(root *kernel.Task) error {
			l, err := usync.New(root, lock, usync.Config{})
			if err != nil {
				return err
			}
			bm, err := usync.NewMutex(root, usync.Config{})
			if err != nil {
				return err
			}
			cv, err := usync.NewCond(root, bm)
			if err != nil {
				return err
			}
			ctr, err := root.Mmap(8, true)
			if err != nil {
				return err
			}
			space := root.Space()
			lockFn := func(l usync.Lock, t *kernel.Task) {
				sp := tr.begin(callSyncLock)
				l.Lock(t)
				tr.end(sp)
			}
			unlockFn := func(l usync.Lock, t *kernel.Task) {
				sp := tr.begin(callSyncUnlock)
				l.Unlock(t)
				tr.end(sp)
			}
			arrived, gen := 0, 0
			meet := func(t *kernel.Task) {
				lockFn(bm, t)
				if arrived++; arrived == threads {
					arrived = 0
					gen++
					sp := tr.begin(callSyncCondBroadcast)
					cv.Broadcast(t)
					tr.end(sp)
				} else {
					for g := gen; g == gen; {
						sp := tr.begin(callSyncCondWait)
						cv.Wait(t)
						tr.end(sp)
					}
				}
				unlockFn(bm, t)
			}
			r := sim.NewRNG(seed)
			kids := make([]*kernel.Task, threads)
			for i := range kids {
				outside := r.Duration(50*sim.Nanosecond, 150*sim.Nanosecond)
				kids[i] = clone(tr, root, i%4, func(t *kernel.Task) int {
					for a := 1; a <= acqs; a++ {
						lockFn(l, t)
						// ctr stays mapped for the whole op; a failed access
						// would show as a wrong final count.
						v, _ := space.ReadU64(ctr, nil)
						t.Compute(2 * sim.Microsecond)
						space.WriteU64(ctr, v+1, nil)
						unlockFn(l, t)
						t.Compute(outside)
						if a%barrier == 0 {
							meet(t)
						}
					}
					return 0
				})
			}
			if err := joinAll(tr, root, kids); err != nil {
				return err
			}
			if got, err := space.ReadU64(ctr, nil); err != nil || got != uint64(threads*acqs) {
				return fmt.Errorf("%s: counter %d, want %d: mutual exclusion violated", lock, got, threads*acqs)
			}
			return nil
		})
	}}
}

// runRoot runs body as the root task of a fresh kernel on m and digests
// the run: virtual end time, system-calls, kernel context switches and
// futex sleeps.
func runRoot(rs *runState, m *arch.Machine, body func(root *kernel.Task) error) (string, error) {
	e := sim.New()
	k := kernel.New(e, m)
	if rs.reg != nil {
		k.SetMetrics(rs.reg)
	}
	var bodyErr error
	root := k.NewTask("hostbench-root", k.NewAddressSpace(), func(t *kernel.Task) int {
		bodyErr = body(t)
		return 0
	})
	k.Start(root, 0)
	if err := runEngine(rs.tr, e); err != nil {
		return "", err
	}
	if bodyErr != nil {
		return "", bodyErr
	}
	fx := k.FutexStats()
	return fmt.Sprintf("end=%d syscalls=%d ctxsw=%d futex_sleeps=%d requeued=%d",
		int64(e.Now()), k.Syscalls(), k.ContextSwitches(), fx.Blocked, fx.Requeued), nil
}

// clone starts a thread of root pinned to core inside a kernel.clone span.
func clone(tr *tracer, root *kernel.Task, core int, body kernel.TaskBody) *kernel.Task {
	sp := tr.begin(callKernelClone)
	t := root.ClonePinned("worker", kernel.PThreadFlags, core, body)
	tr.end(sp)
	return t
}

// joinAll joins every kid inside kernel.join spans.
func joinAll(tr *tracer, root *kernel.Task, kids []*kernel.Task) error {
	bad := 0
	for _, kid := range kids {
		sp := tr.begin(callKernelJoin)
		if root.Join(kid) != 0 {
			bad++
		}
		tr.end(sp)
	}
	if bad != 0 {
		return fmt.Errorf("%d threads exited non-zero", bad)
	}
	return nil
}

// scaleSizes sizes one machine's scale-suite rows.
type scaleSizes struct{ spawnJoin, fanIn, churn int }

// scaleWorkload: clone/exit/join, the timer wheel, run queues and the
// futex table at size. The fan-in row's parked tasks set peak memory.
func scaleWorkload(tiny bool) *workload {
	timed, warm := scaleSizes{120_000, 25_000, 1_000}, scaleSizes{10_000, 1_000, 1_000}
	w := &workload{
		name:    "scale",
		nominal: 40, traced: 10,
	}
	if tiny {
		timed, warm = scaleSizes{2_000, 256, 64}, scaleSizes{500, 64, 16}
		w.nominal, w.traced = 4, 4
	}
	// An op is one bench.Scale call: a spawn-join or a fan-in row, plus
	// the futex-churn row bench.Scale always ends with. The machines take
	// turns every four ops, each block two ops of each kind in an order
	// the seed picks, so every eight ops run each row once more on each
	// machine.
	w.op = func(seed uint64, i int) op {
		sz := scaleSizes{churn: timed.churn}
		if permutation(seed, 4)[i%4]%2 == 0 {
			sz.spawnJoin = timed.spawnJoin
		} else {
			sz.fanIn = timed.fanIn
		}
		return scaleOp(machines[(i/4)%2], sz)
	}
	// The warm-up runs every row once per machine at a fraction of the
	// timed size: a full-size warm-up would double the run.
	w.warmup = func(uint64) []op {
		return []op{scaleOp(machines[0], warm), scaleOp(machines[1], warm)}
	}
	return w
}

// scaleOp runs bench.Scale with the given rows (zero spawn-join and
// fan-in sizes are skipped) and digests each row's virtual time and
// futex-table high-water mark. The table must drain to empty.
func scaleOp(m *arch.Machine, sz scaleSizes) op {
	key := fmt.Sprintf("scale/%s/spawn-join=%d/fanin=%d/churn=%d", m.Name, sz.spawnJoin, sz.fanIn, sz.churn)
	return op{key: key, run: func(rs *runState) (string, error) {
		cfg := bench.ScaleConfig{Label: "hostbench", ChurnWords: sz.churn}
		if sz.spawnJoin > 0 {
			cfg.SpawnJoin = []int{sz.spawnJoin}
		}
		if sz.fanIn > 0 {
			cfg.FanIn = []int{sz.fanIn}
		}
		bench.Metrics = rs.reg
		sp := rs.tr.begin(callBenchScale)
		res, err := bench.Scale(m, cfg)
		rs.tr.end(sp)
		bench.Metrics = nil
		if err != nil {
			return "", err
		}
		var d []string
		for _, row := range res.Rows {
			if row.TableEnd != 0 {
				return "", fmt.Errorf("%s n=%d: futex table holds %d entries at quiescence", row.Series, row.N, row.TableEnd)
			}
			rs.scaleRows = append(rs.scaleRows, row)
			d = append(d, fmt.Sprintf("%s:virt=%d,table=%d", row.Series, int64(row.Virt), row.TablePeak))
		}
		return strings.Join(d, " "), nil
	}}
}

// chaosProbes are the probe programs every chaos run attaches: fire
// counters on the hottest points plus a p99 latency SLO.
const chaosProbes = "count:points=syscall:enter+futex:wait+sched:switch;slo:p99_us=20000"

// chaosWorkload: the only workload where the fault plane, the supervisor
// watchdog and attached probe programs all fire.
func chaosWorkload(tiny bool) *workload {
	cfg := chaos.Config{ULPs: 32, Ops: 400, Signals: 16, Supervise: true}
	w := &workload{
		name:    "chaos",
		nominal: 112, traced: 12,
	}
	if tiny {
		cfg.ULPs, cfg.Ops, cfg.Signals = 4, 24, 2
		w.nominal, w.traced = 2, 2
	}
	specs, err := probe.ParseSpecs(chaosProbes)
	if err != nil {
		panic(err) // a constant spec
	}
	cfg.Probes = specs
	// Op i runs seed+i/2 on machine i%2: every op is a distinct
	// schedule, so the run averages over many fault interleavings.
	w.op = func(seed uint64, i int) op {
		c := cfg
		c.Machine, c.Seed = machines[i%2], seed+uint64(i/2)
		return chaosOp(c)
	}
	w.warmup = w.leading(2)
	return w
}

// chaosOp runs one chaos.Run, which checks the protocol's invariants
// itself (exit statuses, system-call consistency, coupled getpids, no
// deadlock, the SLO); its digest is the run's deterministic fingerprint.
func chaosOp(cfg chaos.Config) op {
	key := fmt.Sprintf("chaos/%s/ulps=%d/ops=%d/signals=%d/seed=%d", cfg.Machine.Name, cfg.ULPs, cfg.Ops, cfg.Signals, cfg.Seed)
	return op{key: key, run: func(rs *runState) (string, error) {
		cfg.Metrics = rs.reg
		sp := rs.tr.begin(callChaosRun)
		d, err := chaos.Run(cfg)
		rs.tr.end(sp)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("end=%d syscalls=%d ctxsw=%d injections=%d orphans=%d",
			int64(d.EndTime), d.Syscalls, d.CtxSwitch, d.Injections, d.Orphans), nil
	}}
}
