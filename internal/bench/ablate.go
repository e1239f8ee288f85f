package bench

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/arch"
	"repro/internal/blt"
	"repro/internal/core"
	"repro/internal/fs"
	"repro/internal/kernel"
	"repro/internal/loader"
	"repro/internal/sim"
)

// --- A1: idle-policy trade-off (latency vs the power proxy) -------------

// IdleAblationResult quantifies §VII's "the choice of the blocking ways
// is a trade-off between latency and power": per idle policy, the
// couple/decouple latency and the CPU time burned spinning.
type IdleAblationResult struct {
	Machine       *arch.Machine
	Policy        blt.IdlePolicy
	GetpidLatency sim.Duration // Table V-style bracketed getpid
	SpunKC        sim.Duration // KC cycles burned idle during the run
	SpunScheds    sim.Duration // scheduler cycles burned idle
}

// AblateIdlePolicy measures both policies on machine m.
func AblateIdlePolicy(m *arch.Machine) ([]IdleAblationResult, error) {
	var out []IdleAblationResult
	for _, idle := range []blt.IdlePolicy{blt.BusyWait, blt.Blocking} {
		res := IdleAblationResult{Machine: m, Policy: idle}
		err := runULP(m, ulpConfig(idle), func(rt *core.Runtime) {
			e := rt.Kernel().Engine()
			rt.Spawn(benchImage("idle", func(envI interface{}) int {
				env := envI.(*core.Env)
				env.Decouple()
				res.GetpidLatency = timeLoop(e, 8, 64, func(int) {
					env.Getpid()
					// Idle gaps between syscalls: where the policies
					// diverge in burned cycles.
					env.Compute(2 * sim.Microsecond)
				}) - 2*sim.Microsecond
				env.Couple()
				return 0
			}), core.SpawnOpts{Scheduler: 0})
			rt.WaitAll()
			for _, u := range rt.ULPs() {
				res.SpunKC += u.BLT().Host().SpunIdle()
			}
			for _, s := range rt.Pool().Schedulers() {
				res.SpunScheds += s.SpunIdle()
			}
		})
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// PrintIdleAblation renders A1.
func PrintIdleAblation(w io.Writer, results []IdleAblationResult) {
	fmt.Fprintf(w, "ABLATION A1 — IDLE POLICY: LATENCY vs POWER (%s)\n", results[0].Machine.Name)
	fmt.Fprintf(w, "%-10s %18s %18s %18s\n", "policy", "getpid+couple[ns]", "KC spun[us]", "scheds spun[us]")
	fmt.Fprintln(w, strings.Repeat("-", 68))
	for _, r := range results {
		fmt.Fprintf(w, "%-10s %18.0f %18.1f %18.1f\n",
			r.Policy, r.GetpidLatency.Nanoseconds(),
			r.SpunKC.Microseconds(), r.SpunScheds.Microseconds())
	}
}

// --- A2: TLS-switch ablation (ULT vs ULP semantics) ---------------------

// TLSAblationResult compares per-yield cost with TLS switching on (ULP
// semantics, mandatory per §V-B) and off (what plain ULT libraries do).
type TLSAblationResult struct {
	Machine *arch.Machine
	WithTLS sim.Duration
	NoTLS   sim.Duration
}

// AblateTLS measures the two modes on machine m.
func AblateTLS(m *arch.Machine) (TLSAblationResult, error) {
	res := TLSAblationResult{Machine: m}
	measure := func(switchTLS bool) (sim.Duration, error) {
		var per sim.Duration
		err := RunKernel(m, func(k *kernel.Kernel, root *kernel.Task) {
			pool, err := blt.NewPool(root, blt.Config{
				ProgCores:    []int{0},
				SyscallCores: []int{2, 3},
				Idle:         blt.BusyWait,
				SwitchTLS:    switchTLS,
			})
			if err != nil {
				panic(err)
			}
			tlsA, _ := root.Mmap(64, true)
			tlsB, _ := root.Mmap(64, true)
			ready, done := 0, false
			started := func(*kernel.Task) bool { return ready >= 2 }
			finished := func(*kernel.Task) bool { return done }
			pool.Spawn(func(b *blt.BLT) int {
				b.Decouple()
				ready++
				b.YieldUntil(started)
				// Each iteration is this BLT's yield and its peer's.
				per = timeLoop(k.Engine(), 32, 512, func(int) { b.Yield() }) / 2
				done = true
				b.Couple()
				return 0
			}, blt.SpawnOpts{Name: "a", Scheduler: 0, TLSBase: tlsA})
			pool.Spawn(func(b *blt.BLT) int {
				b.Decouple()
				ready++
				b.YieldUntil(finished)
				b.Couple()
				return 0
			}, blt.SpawnOpts{Name: "b", Scheduler: 0, TLSBase: tlsB})
			root.Wait()
			root.Wait()
			pool.Shutdown(root)
		})
		return per, err
	}
	var err error
	if res.WithTLS, err = measure(true); err != nil {
		return res, err
	}
	if res.NoTLS, err = measure(false); err != nil {
		return res, err
	}
	return res, nil
}

// PrintTLSAblation renders A2.
func PrintTLSAblation(w io.Writer, results map[string]TLSAblationResult) {
	fmt.Fprintln(w, "ABLATION A2 — YIELD COST: ULP (TLS SWITCHED) vs ULT (TLS IGNORED)")
	fmt.Fprintf(w, "%-10s %16s %16s %14s\n", "machine", "ULP yield[ns]", "ULT yield[ns]", "TLS share")
	fmt.Fprintln(w, strings.Repeat("-", 60))
	for _, name := range []string{"Wallaby", "Albireo"} {
		r := results[name]
		share := 1 - float64(r.NoTLS)/float64(r.WithTLS)
		fmt.Fprintf(w, "%-10s %16.1f %16.1f %13.0f%%\n",
			name, r.WithTLS.Nanoseconds(), r.NoTLS.Nanoseconds(), share*100)
	}
}

// --- A5: the Fig. 6 deployment sweep ------------------------------------

// Fig6Point is one configuration of the Fig. 6 scenario: NCsyscall
// dedicated syscall cores and an over-subscription factor O
// (NB = NCprog * (O+1), paper Eq. 2), running a syscall-heavy workload.
type Fig6Point struct {
	Machine      *arch.Machine
	SyscallCores int
	Oversub      int
	NumULPs      int
	Makespan     sim.Duration
	Throughput   float64 // consistent open-write-close brackets per ms
}

// Fig6Scenario runs the workload for each (NCsyscall, O) combination:
// NB ULPs of Fig6Worker, each running 8 brackets of 4 KiB with 5 µs of
// computation before each.
func Fig6Scenario(m *arch.Machine, syscallCores []int, oversubs []int) ([]Fig6Point, error) {
	var out []Fig6Point
	const progCores = 2
	const opsPerULP = 8
	for _, nc := range syscallCores {
		for _, ov := range oversubs {
			numULPs := progCores * (ov + 1)
			cfg := core.Config{
				ProgCores:    seq(0, progCores),
				SyscallCores: seq(progCores, nc),
				Idle:         blt.Blocking,
			}
			var makespan sim.Duration
			err := runULP(m, cfg, func(rt *core.Runtime) {
				e := rt.Kernel().Engine()
				start := e.Now()
				prog := Fig6Worker(opsPerULP, 5*sim.Microsecond, 4096)
				for i := 0; i < numULPs; i++ {
					if _, err := rt.Spawn(prog, core.SpawnOpts{Scheduler: -1}); err != nil {
						panic(err)
					}
				}
				rt.WaitAll()
				makespan = e.Now().Sub(start)
			})
			if err != nil {
				return nil, err
			}
			ops := float64(numULPs * opsPerULP)
			out = append(out, Fig6Point{
				Machine: m, SyscallCores: nc, Oversub: ov, NumULPs: numULPs,
				Makespan:   makespan,
				Throughput: ops / (float64(makespan) / 1e9),
			})
		}
	}
	return out, nil
}

// Fig6Worker is the program of A5's ULPs, which ulpsim's scenario mode
// also runs: decoupled from its KC, a ULP repeats ops times a compute
// burst, one open-write-close of writeSize bytes inside a
// couple()/decouple() bracket (served by a system-call core, which
// streams the buffer remotely) and a yield. An open that fails under
// an injected fault skips that bracket's write and close. The image is
// named worker, so its KCs are kc.worker.<rank>.
func Fig6Worker(ops int, compute sim.Duration, writeSize int) *loader.Image {
	return benchImage("worker", func(envI interface{}) int {
		env := envI.(*core.Env)
		env.Decouple()
		buf := writeSource(writeSize)
		path := fmt.Sprintf("/out.%d", env.U.Rank)
		for i := 0; i < ops; i++ {
			env.Compute(compute)
			env.Exec(func(kc *kernel.Task) {
				fd, err := kc.Open(path, fs.OCreate|fs.OWrOnly|fs.OTrunc)
				if err != nil {
					return
				}
				kc.Write(fd, buf, true)
				kc.Close(fd)
			})
			env.Yield()
		}
		return 0
	})
}

// PrintFig6 renders A5.
func PrintFig6(w io.Writer, points []Fig6Point) {
	fmt.Fprintf(w, "ABLATION A5 — FIG.6 DEPLOYMENT SWEEP (%s, 2 prog cores, blocking idle)\n",
		points[0].Machine.Name)
	fmt.Fprintf(w, "%-14s %-8s %-8s %14s %16s\n", "syscall-cores", "O", "ULPs", "makespan[us]", "ops/ms")
	fmt.Fprintln(w, strings.Repeat("-", 64))
	for _, p := range points {
		fmt.Fprintf(w, "%-14d %-8d %-8d %14.1f %16.1f\n",
			p.SyscallCores, p.Oversub, p.NumULPs,
			p.Makespan.Microseconds(), p.Throughput)
	}
}

// seq returns [start, start+n).
func seq(start, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = start + i
	}
	return out
}
