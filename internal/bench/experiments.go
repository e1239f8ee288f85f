package bench

import (
	"fmt"
	"io"

	"repro/internal/arch"
)

// Experiment is one entry of `ulpbench -exp`. Run renders it to w
// exactly as the CLI prints it and returns its JSON records. A figure
// also hands each machine's curves to curves, when that is non-nil:
// `-csv` writes them to files, and Report draws them.
type Experiment struct {
	Name string
	Run  func(w io.Writer, curves Curves) ([]Record, error)
}

// Curves receives one machine's curves of a figure.
type Curves func(machine string, series []Series) error

// Experiments is the evaluation `ulpbench -exp all` runs, in output
// order: the paper's §VI Tables III–V and Figs. 7–8, then the §VII
// ablations and the two extensions (huge pages, MPI oversubscription).
// Concatenated in this order, their outputs are results/ulpbench.txt.
var Experiments = []Experiment{
	{"table3", table(Table3, PrintTable3, Table3Records)},
	{"table4", table(Table4, PrintTable4, Table4Records)},
	{"table5", table(Table5, PrintTable5, Table5Records)},
	{"fig7", figure(Fig7, PrintFig7, Fig7Records)},
	{"fig8", figure(Fig8, PrintFig8, Fig8Records)},
	{"ablate-idle", perMachine(AblateIdlePolicy, PrintIdleAblation)},
	{"ablate-tls", table(AblateTLS, PrintTLSAblation, nil)},
	{"fig6-scenario", perMachine(func(m *arch.Machine) ([]Fig6Point, error) {
		return Fig6Scenario(m, []int{1, 2, 4}, []int{0, 1, 3})
	}, PrintFig6)},
	{"huge-pages", perMachine(HugePages, PrintHugePages)},
	{"mpi-oversub", perMachine(func(m *arch.Machine) ([]MPIPoint, error) {
		return MPIOversubscription(m, []int{2, 4, 8, 16})
	}, PrintMPI)},
}

// table is an experiment printed as one table over both machines, run
// on the sweep pool by MachineResults. A nil records emits none.
func table[T any](run func(*arch.Machine) (T, error), print func(io.Writer, map[string]T),
	records func(map[string]T) []Record) func(io.Writer, Curves) ([]Record, error) {
	return func(w io.Writer, _ Curves) ([]Record, error) {
		r, err := MachineResults(run)
		if err != nil {
			return nil, err
		}
		print(w, r)
		fmt.Fprintln(w)
		if records == nil {
			return nil, nil
		}
		return records(r), nil
	}
}

// figure is an experiment printed as one block per machine, in
// MachineOrder, that hands each block's curves to curves.
func figure[T interface{ Series() []Series }](run func(*arch.Machine) (T, error),
	print func(io.Writer, T), records func(map[string]T) []Record) func(io.Writer, Curves) ([]Record, error) {
	return func(w io.Writer, curves Curves) ([]Record, error) {
		r, err := MachineResults(run)
		if err != nil {
			return nil, err
		}
		for _, m := range MachineOrder {
			print(w, r[m])
			fmt.Fprintln(w)
			if curves != nil {
				if err := curves(m, r[m].Series()); err != nil {
					return nil, err
				}
			}
		}
		return records(r), nil
	}
}

// perMachine is an experiment run and printed machine by machine,
// serially, with no records.
func perMachine[T any](run func(*arch.Machine) (T, error), print func(io.Writer, T)) func(io.Writer, Curves) ([]Record, error) {
	return func(w io.Writer, _ Curves) ([]Record, error) {
		for _, m := range arch.Machines() {
			r, err := run(m)
			if err != nil {
				return nil, err
			}
			print(w, r)
			fmt.Fprintln(w)
		}
		return nil, nil
	}
}
