// Package hostprof writes host-time profiles of a command's run with
// runtime/pprof: a CPU profile over the run and a heap profile at its
// end. Read them with `go tool pprof`.
package hostprof

import (
	"os"
	"runtime"
	"runtime/pprof"
)

// Start starts a CPU profile into cpuPath, unless it is empty. The stop
// it returns ends that profile and then, unless memPath is empty, writes
// a heap profile there; call it once, after the run.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err = pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return err
			}
		}
		if memPath == "" {
			return nil
		}
		f, err := os.Create(memPath)
		if err != nil {
			return err
		}
		runtime.GC() // the profile's in-use figures are as of the last GC
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}, nil
}
