package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"

	"repro/internal/arch"
	"repro/internal/bench"
	"repro/internal/sim"
)

// paperExperiments renders each experiment of `ulpbench -exp all`
// exactly as that command prints it, in its output order, so one pass
// concatenated in this order must equal results/ulpbench.txt.
var paperExperiments = []struct {
	name   string
	render func(w io.Writer) error
}{
	{"table3", func(w io.Writer) error {
		r, err := bench.MachineResults(bench.Table3)
		if err == nil {
			bench.PrintTable3(w, r)
			fmt.Fprintln(w)
		}
		return err
	}},
	{"table4", func(w io.Writer) error {
		r, err := bench.MachineResults(bench.Table4)
		if err == nil {
			bench.PrintTable4(w, r)
			fmt.Fprintln(w)
		}
		return err
	}},
	{"table5", func(w io.Writer) error {
		r, err := bench.MachineResults(bench.Table5)
		if err == nil {
			bench.PrintTable5(w, r)
			fmt.Fprintln(w)
		}
		return err
	}},
	{"fig7", func(w io.Writer) error {
		r, err := bench.MachineResults(bench.Fig7)
		if err == nil {
			for _, name := range bench.MachineOrder {
				bench.PrintFig7(w, r[name])
				fmt.Fprintln(w)
			}
		}
		return err
	}},
	{"fig8", func(w io.Writer) error {
		r, err := bench.MachineResults(bench.Fig8)
		if err == nil {
			for _, name := range bench.MachineOrder {
				bench.PrintFig8(w, r[name])
				fmt.Fprintln(w)
			}
		}
		return err
	}},
	{"ablate-idle", perMachine(func(w io.Writer, m *arch.Machine) error {
		r, err := bench.AblateIdlePolicy(m)
		if err == nil {
			bench.PrintIdleAblation(w, r)
		}
		return err
	})},
	{"ablate-tls", func(w io.Writer) error {
		r, err := bench.MachineResults(bench.AblateTLS)
		if err == nil {
			bench.PrintTLSAblation(w, r)
			fmt.Fprintln(w)
		}
		return err
	}},
	{"fig6-scenario", perMachine(func(w io.Writer, m *arch.Machine) error {
		pts, err := bench.Fig6Scenario(m, []int{1, 2, 4}, []int{0, 1, 3})
		if err == nil {
			bench.PrintFig6(w, pts)
		}
		return err
	})},
	{"huge-pages", perMachine(func(w io.Writer, m *arch.Machine) error {
		r, err := bench.HugePages(m)
		if err == nil {
			bench.PrintHugePages(w, r)
		}
		return err
	})},
	{"mpi-oversub", perMachine(func(w io.Writer, m *arch.Machine) error {
		pts, err := bench.MPIOversubscription(m, []int{2, 4, 8, 16})
		if err == nil {
			bench.PrintMPI(w, pts)
		}
		return err
	})},
}

// perMachine renders an experiment ulpbench runs machine by machine,
// each block followed by a blank line.
func perMachine(f func(w io.Writer, m *arch.Machine) error) func(io.Writer) error {
	return func(w io.Writer) error {
		for _, m := range arch.Machines() {
			if err := f(w, m); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
		return nil
	}
}

// paperPass is one serial pass of every paper experiment. The seed only
// picks the order the experiments run in; each one stands up its own
// machines, so the rendered text, reassembled in output order, never
// depends on it. Its digest is the text's SHA-256.
func paperPass(seed uint64) op {
	return op{key: "paper/pass", run: func(rs *runState) (string, error) {
		bench.Metrics = rs.reg
		defer func() { bench.Metrics = nil }()
		out := make([]bytes.Buffer, len(paperExperiments))
		for _, i := range permutation(seed, len(paperExperiments)) {
			sp := rs.tr.begin(callBenchPaper + call(i))
			err := paperExperiments[i].render(&out[i])
			rs.tr.end(sp)
			if err != nil {
				return "", fmt.Errorf("%s: %w", paperExperiments[i].name, err)
			}
		}
		h := sha256.New()
		for i := range out {
			h.Write(out[i].Bytes())
		}
		return "sha256:" + hex.EncodeToString(h.Sum(nil)), nil
	}}
}

// permutation returns a seeded shuffle of 0..n-1.
func permutation(seed uint64, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r := sim.NewRNG(seed)
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
