// insitu demonstrates the paper's motivating ULP use case (§III):
// coupling two *separate programs* — a physics "simulation" and an
// in-situ "analytics" program — in one address space, without merging
// their code bases. Each runs as a user-level process: privatized
// globals, its own PID and file descriptors, but zero-copy access to the
// other's data through pip_export/pip_import-style address sharing.
//
// The simulation produces field snapshots; the analytics program reads
// them in place (no copy, no IPC) and writes a report to tmpfs inside a
// couple()/decouple() bracket, so the report I/O runs on the dedicated
// system-call core and never blocks the simulation's scheduler.
package main

import (
	"fmt"
	"log"

	ulppip "repro"
)

const (
	steps     = 5
	fieldSize = 4096 // bytes per snapshot
)

func main() {
	s := ulppip.NewSim(ulppip.Wallaby())

	// Shared coordination cells (Go-side runtime state is fine for an
	// example; field data itself lives in simulated memory).
	var fieldAddr uint64
	published := 0 // last step the simulation published
	consumed := 0  // last step analytics finished

	simulation := &ulppip.Image{
		Name: "fluid-sim", PIE: true, TextSize: 8192,
		Symbols: []ulppip.Symbol{
			{Name: "field", Size: fieldSize},
			{Name: "step", Size: 8},
		},
		Main: func(envI interface{}) int {
			env := envI.(*ulppip.Env)
			env.Decouple() // run as a ULT on the program cores
			addr, err := env.SymbolAddr("field")
			if err != nil {
				return 1
			}
			fieldAddr = addr
			if err := env.Export("sim.field", "field"); err != nil {
				return 1
			}
			for step := 1; step <= steps; step++ {
				// "Physics": burn CPU, then write the snapshot into
				// our privatized field array.
				env.Compute(20 * ulppip.Microsecond)
				snap := make([]byte, fieldSize)
				for i := range snap {
					snap[i] = byte(step)
				}
				if err := env.MemWrite(addr, snap); err != nil {
					return 1
				}
				published = step
				// Wait for analytics to catch up before overwriting.
				env.YieldUntil(func(*ulppip.Task) bool { return consumed >= step })
			}
			env.Couple()
			return 0
		},
	}

	analytics := &ulppip.Image{
		Name: "insitu-stats", PIE: true, TextSize: 8192,
		Symbols: []ulppip.Symbol{
			{Name: "histogram", Size: 256 * 8},
		},
		Main: func(envI interface{}) int {
			env := envI.(*ulppip.Env)
			env.Decouple()
			// Import the simulation's field: a raw pointer into the
			// shared address space, dereferencable as-is.
			var field uint64
			for {
				if addr, err := env.Import("sim.field"); err == nil {
					field = addr
					break
				}
				env.Yield() // simulation hasn't exported yet
			}
			buf := make([]byte, fieldSize)
			for step := 1; step <= steps; step++ {
				env.YieldUntil(func(*ulppip.Task) bool { return published >= step })
				// Zero-copy read of the live field.
				if err := env.MemRead(field, buf); err != nil {
					return 1
				}
				sum := 0
				for _, b := range buf {
					sum += int(b)
				}
				// Write the per-step report on the syscall core; the
				// whole open-write-close series is bracketed so it
				// hits *our* file descriptor table.
				report := fmt.Sprintf("step %d: checksum %d\n", step, sum)
				fd, err := env.Open(fmt.Sprintf("/reports/step%d", step), ulppip.OCreate|ulppip.OWrOnly)
				if err != nil {
					return 1
				}
				env.Write(fd, []byte(report))
				env.Close(fd)
				consumed = step
			}
			env.Couple()
			return 0
		},
	}

	if _, err := ulppip.Boot(s.Kernel, ulppip.Config{
		ProgCores:    []int{0, 1},
		SyscallCores: []int{2, 3},
		Idle:         ulppip.IdleBlocking,
		Audit:        true,
	}, func(rt *ulppip.Runtime) int {
		if _, err := rt.Spawn(simulation, ulppip.ULPSpawnOpts{Scheduler: 0}); err != nil {
			log.Fatal(err)
		}
		if _, err := rt.Spawn(analytics, ulppip.ULPSpawnOpts{Scheduler: 1}); err != nil {
			log.Fatal(err)
		}
		statuses, err := rt.WaitAll()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("exit statuses: %v; consistency violations: %d\n",
			statuses, len(rt.Violations()))
		rt.Shutdown()
		return 0
	}); err != nil {
		log.Fatal(err)
	}
	if err := s.Run(); err != nil {
		log.Fatal(err)
	}

	// Show the reports the analytics ULP wrote.
	for _, path := range s.Kernel.FS().List() {
		ino, _ := s.Kernel.FS().Stat(path)
		fmt.Printf("%-18s %3d bytes\n", path, ino.Size())
	}
	fmt.Printf("done at virtual time %v; field at %#x\n", s.Now(), fieldAddr)
}
