package mpi

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/blt"
	"repro/internal/fault"
	"repro/internal/kernel"
	"repro/internal/leakcheck"
	"repro/internal/probe"
	"repro/internal/sim"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current code")

// checkGolden compares got with testdata/<name>.golden, or rewrites the
// file under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := "testdata/" + name + ".golden"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got == string(want) {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			t.Fatalf("%s differs at line %d:\n  got:  %q\n  want: %q", path, i+1, gl, wl)
		}
	}
}

// wavesRanks and wavesRounds size the waits program.
const (
	wavesRanks  = 8
	wavesRounds = 3
)

// wavesProgram exercises every way a rank waits: an eager ring of
// Send/Recv, a 32 KiB rendezvous exchange through Isend/Recv/Wait, a
// blocking 32 KiB rendezvous Send against a Recv, a Barrier and an
// Allreduce, with compute that differs per rank and round so the ranks
// reach each wait at different times. A rank yields only inside these
// calls. The exit status is 0 when every payload and sum checks out.
func wavesProgram(r *Rank) int {
	rank, n := r.Rank(), r.Size()
	big := bytes.Repeat([]byte{byte(rank)}, 32<<10)
	for round := 0; round < wavesRounds; round++ {
		r.Env().Compute(sim.Duration(1+(rank*(round+2))%7) * sim.Microsecond)

		next, prev := (rank+1)%n, (rank+n-1)%n
		token := []byte{byte(rank), byte(round)}
		if rank%2 == 0 {
			if r.Send(next, round, token) != nil {
				return 1
			}
		}
		got, _, _, err := r.Recv(prev, round)
		if err != nil || got[0] != byte(prev) || got[1] != byte(round) {
			return 2
		}
		if rank%2 == 1 {
			if r.Send(next, round, token) != nil {
				return 3
			}
		}

		mate := rank ^ 1
		req, err := r.Isend(mate, 100+round, big)
		if err != nil {
			return 4
		}
		got, _, _, err = r.Recv(mate, 100+round)
		if err != nil || len(got) != len(big) || got[len(got)-1] != byte(mate) {
			return 5
		}
		req.Wait()

		r.Env().Compute(sim.Duration(1+(rank+round)%3) * sim.Microsecond)
		partner := rank ^ 2
		if rank < partner {
			if r.Send(partner, 200+round, big) != nil {
				return 6
			}
		}
		got, _, _, err = r.Recv(partner, 200+round)
		if err != nil || len(got) != len(big) || got[0] != byte(partner) {
			return 7
		}
		if rank > partner {
			if r.Send(partner, 200+round, big) != nil {
				return 8
			}
		}

		if r.Barrier() != nil {
			return 9
		}
		sum, err := r.Allreduce(OpSum, []float64{float64(rank * (round + 1))})
		if err != nil || sum[0] != float64(n*(n-1)/2*(round+1)) {
			return 10
		}
	}
	return 0
}

// wavesRun runs program on k and returns one golden line: the end
// time, syscalls, context switches, each scheduler's dispatches, each
// rank's yields and, when traced, the SHA-256 of the trace dump.
func wavesRun(t *testing.T, k *kernel.Kernel, cfg Config, tr *sim.Tracer, program Program) (*World, string) {
	t.Helper()
	if tr != nil {
		k.Engine().SetTracer(tr)
	}
	w, statuses, err := Run(k, cfg, wavesRanks, program)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range statuses {
		if s != 0 {
			t.Fatalf("rank %d exit status %d", i, s)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "end=%d syscalls=%d ctxsw=%d dispatches=", int64(k.Engine().Now()), k.Syscalls(), k.ContextSwitches())
	for i, s := range w.Runtime().Pool().Schedulers() {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", s.Dispatches())
	}
	b.WriteString(" yields=")
	for i, u := range w.Runtime().ULPs() {
		if i > 0 {
			b.WriteByte(',')
		}
		_, _, yields := u.Stats()
		fmt.Fprintf(&b, "%d", yields)
	}
	if tr != nil {
		h := sha256.New()
		if err := tr.Dump(h); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, " trace=%x", h.Sum(nil)[:12])
	}
	return w, b.String()
}

// killVisit is what the observer saw at one sched_kill draw on
// sched.c0: the rank at the tail of the ready queue (the one a yield
// just requeued), the rank whose TLS the scheduler's register holds (the
// UC switched in last), -1 for no rank, and the virtual time since the
// scheduler's last sched_delay draw (the end of its last switch-in).
type killVisit struct {
	tail, loaded int
	sinceSwitch  sim.Duration
}

// TestWaitsGolden pins how ranks wait: for both machines, both idle
// policies and one and two program cores, each untraced and traced, one
// line of schedule counters per run. A faulted run adds a scheduler
// kill and scheduler delays, and checks that the kill is drawn by the
// yield of a waiting rank that the pass of another rank's yield
// switched in, right after the rank's poll missed: where the poll runs
// inside that pass. The goroutine count must return to its baseline
// after every run (leakcheck).
func TestWaitsGolden(t *testing.T) {
	cfgFor := func(idle blt.IdlePolicy, progCores int) Config {
		cfg := Config{SyscallCores: []int{2, 3}, Idle: idle}
		for c := 0; c < progCores; c++ {
			cfg.ProgCores = append(cfg.ProgCores, c)
		}
		return cfg
	}
	wavesRun(t, kernel.New(sim.New(), arch.Wallaby()), cfgFor(blt.BusyWait, 2), nil, wavesProgram)
	base := leakcheck.Baseline()
	var b bytes.Buffer
	for _, m := range arch.Machines() {
		for _, idle := range []blt.IdlePolicy{blt.BusyWait, blt.Blocking} {
			for progCores := 1; progCores <= 2; progCores++ {
				for _, traced := range []bool{false, true} {
					var tr *sim.Tracer
					if traced {
						tr = sim.NewTracer(0)
					}
					_, line := wavesRun(t, kernel.New(sim.New(), m), cfgFor(idle, progCores), tr, wavesProgram)
					fmt.Fprintf(&b, "%s/%s/prog=%d/traced=%v %s\n", m.Name, idle, progCores, traced, line)
					leakcheck.Check(t, base)
				}
			}
		}
	}

	// The faulted run: sched.c0 dies on its 13th sched_kill draw, and
	// each dispatch of sched.c1 is delayed 2 µs with probability 0.3.
	// sched.c0's dispatches are not delayed, so the time from the end of
	// one of its switch-ins to the next draw counts the charges alone.
	const killNth = 13
	specs := []fault.Spec{
		{Site: probe.SiteSchedKill, Nth: killNth, TaskPrefix: "sched.c0"},
		{Site: probe.SiteSchedDelay, Prob: 0.3, DelayUS: 2, TaskPrefix: "sched.c1"},
	}
	k := kernel.New(sim.New(), arch.Wallaby())
	plane := fault.NewPlane(7, specs)
	plane.Attach(k.Probes())
	// rankOf maps a rank's TLS base, and rankOfBLT its BLT, to its rank;
	// the observer reads them at every sched_kill draw on sched.c0.
	rankOf := map[uint64]int{}
	rankOfBLT := map[*blt.BLT]int{}
	var sched0 *blt.Scheduler
	var visits []killVisit
	var switched sim.Time
	k.Probes().Attach("kill-observer", func(c *probe.Ctx) probe.Verdict {
		if c.Task.Name() != "sched.c0" {
			return probe.Verdict{}
		}
		now := k.Engine().Now()
		if c.ID == probe.SiteSchedDelay {
			switched = now
		}
		if c.ID != probe.SiteSchedKill {
			return probe.Verdict{}
		}
		v := killVisit{tail: -1, loaded: -1, sinceSwitch: now.Sub(switched)}
		if sched0 != nil && sched0.QueueLen() > 0 {
			if rank, ok := rankOfBLT[sched0.ReadyAt(sched0.QueueLen()-1)]; ok {
				v.tail = rank
			}
		}
		if rank, ok := rankOf[c.Task.(*kernel.Task).TLSReg()]; ok {
			v.loaded = rank
		}
		visits = append(visits, v)
		return probe.Verdict{}
	}, probe.PFaultSite)
	program := func(r *Rank) int {
		rankOf[r.Env().TLSBase()] = r.Rank()
		rankOfBLT[r.Env().BLT] = r.Rank()
		if sched0 == nil {
			sched0 = r.world.Runtime().Pool().SchedulerAt(0)
		}
		return wavesProgram(r)
	}
	w, line := wavesRun(t, k, cfgFor(blt.BusyWait, 2), nil, program)
	if !w.Runtime().Pool().SchedulerAt(0).Dead() {
		t.Fatal("faulted run: sched.c0 survived its kill draw")
	}
	if len(visits) != killNth {
		t.Fatalf("faulted run: %d sched_kill draws on sched.c0, want %d", len(visits), killNth)
	}
	// The draw before the kill requeued rank y, switched in last: it was
	// y's yield, and its pass switched in the one UC a scheduler switches
	// in between two draws, rank x, which the kill draw requeued. From
	// the end of x's switch-in to the kill the scheduler charged one
	// run-queue op, x's requeue: x's poll (a rendezvous sender's, which
	// charges nothing) ran right after the switch-in and missed, and x's
	// yield drew the kill. Had the poll hit, x would have run on, and
	// charged, up to its next wait.
	kill, prev := visits[killNth-1], visits[killNth-2]
	if kill.tail < 0 || kill.loaded != kill.tail || prev.tail < 0 || prev.loaded != prev.tail ||
		prev.tail == kill.tail || kill.sinceSwitch != k.Machine().Costs.RunQueueOp {
		t.Errorf("faulted run: kill draw %+v after %+v is not inside the pass of another rank's yield", kill, prev)
	}
	fmt.Fprintf(&b, "faulted %s kill=%+v prev=%+v\n", line, kill, prev)
	for _, s := range plane.Stats() {
		fmt.Fprintf(&b, "stat %s\n", s)
	}
	leakcheck.Check(t, base)
	checkGolden(t, "waits", b.String())
}
