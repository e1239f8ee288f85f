package bench

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/arch"
	"repro/internal/blt"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// MPIPoint is one configuration of the MPI oversubscription experiment
// (§III motivation): fixed program cores, growing rank counts. Under
// kernel threads each extra rank costs kernel context switches; under
// ULP ranks the switch is user-level, so per-rank efficiency holds.
type MPIPoint struct {
	Machine  *arch.Machine
	Ranks    int
	Makespan sim.Duration
	// Efficiency is work-per-core-time relative to the 1-rank-per-core
	// configuration (1.0 = oversubscription costs nothing).
	Efficiency float64
}

// MPIOversubscription measures a halo-exchange+compute workload at the
// given rank counts on 2 program cores.
func MPIOversubscription(m *arch.Machine, rankCounts []int) ([]MPIPoint, error) {
	const rounds = 6
	const computePerRound = 20 * sim.Microsecond
	var out []MPIPoint
	var baselinePerRank float64
	for _, ranks := range rankCounts {
		k, pl := newKernel(m, Planes)
		e := k.Engine()
		var makespan sim.Duration
		program := func(r *mpi.Rank) int {
			right := (r.Rank() + 1) % r.Size()
			left := (r.Rank() + r.Size() - 1) % r.Size()
			if err := r.Barrier(); err != nil {
				return 9
			}
			var t0 sim.Time
			if r.Rank() == 0 {
				t0 = e.Now()
			}
			for round := 0; round < rounds; round++ {
				if err := r.Send(right, round, []byte{byte(r.Rank())}); err != nil {
					return 1
				}
				if _, _, _, err := r.Recv(left, round); err != nil {
					return 2
				}
				r.Env().Compute(computePerRound)
			}
			if err := r.Barrier(); err != nil {
				return 9
			}
			if r.Rank() == 0 {
				makespan = e.Now().Sub(t0)
			}
			return 0
		}
		_, statuses, err := mpi.Run(k, mpi.Config{
			ProgCores:    []int{0, 1},
			SyscallCores: []int{2, 3},
			Idle:         blt.BusyWait,
		}, ranks, program)
		if err := finish(k, pl, err); err != nil {
			return nil, err
		}
		for i, s := range statuses {
			if s != 0 {
				return nil, fmt.Errorf("mpi bench: rank %d exited %d", i, s)
			}
		}
		perRank := float64(makespan) / float64(ranks)
		if baselinePerRank == 0 {
			baselinePerRank = perRank
		}
		out = append(out, MPIPoint{
			Machine:    m,
			Ranks:      ranks,
			Makespan:   makespan,
			Efficiency: baselinePerRank / perRank,
		})
	}
	return out, nil
}

// PrintMPI renders the oversubscription sweep.
func PrintMPI(w io.Writer, points []MPIPoint) {
	fmt.Fprintf(w, "MPI OVER ULP RANKS — OVERSUBSCRIPTION ON 2 PROGRAM CORES (%s)\n",
		points[0].Machine.Name)
	fmt.Fprintf(w, "%-8s %14s %14s\n", "ranks", "makespan[us]", "efficiency")
	fmt.Fprintln(w, strings.Repeat("-", 40))
	for _, p := range points {
		fmt.Fprintf(w, "%-8d %14.1f %14.2f\n",
			p.Ranks, p.Makespan.Microseconds(), p.Efficiency)
	}
}
