// pipexec mirrors the real PiP package's piprun utility: it launches N
// instances of a (built-in) PIE program as PiP tasks sharing the root's
// address space, in process or thread mode, and reports what the kernel
// saw.
//
// Usage:
//
//	pipexec -prog counter -n 4 -mode process
//	pipexec -prog ioblast -n 8 -mode thread -machine Albireo
//
// Built-in programs: hello, counter, ioblast.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/arch"
	"repro/internal/fs"
	"repro/internal/kernel"
	"repro/internal/loader"
	"repro/internal/pip"
	"repro/internal/sim"
)

func main() {
	var (
		progName    = flag.String("prog", "hello", "program: hello, counter, ioblast")
		n           = flag.Int("n", 4, "number of PiP tasks")
		modeName    = flag.String("mode", "process", "process or thread")
		machineName = flag.String("machine", "Wallaby", "Wallaby or Albireo")
	)
	flag.Parse()
	if err := run(*progName, *n, *modeName, *machineName); err != nil {
		fmt.Fprintln(os.Stderr, "pipexec:", err)
		os.Exit(1)
	}
}

// programs is the registry of built-in PIE images.
func programs() map[string]*loader.Image {
	return map[string]*loader.Image{
		"hello": {
			Name: "hello", PIE: true, TextSize: 4096,
			Symbols: []loader.Symbol{{Name: "greeting", Size: 32}},
			Main: func(envI interface{}) int {
				env := envI.(*pip.Env)
				fmt.Printf("  hello from PiP task %d (pid %d)\n",
					env.Rank, env.Task().Getpid())
				return 0
			},
		},
		"counter": {
			Name: "counter", PIE: true, TextSize: 4096,
			Symbols: []loader.Symbol{
				{Name: "count", Size: 8},
				{Name: "errno", Size: 8, TLS: true},
			},
			Main: func(envI interface{}) int {
				env := envI.(*pip.Env)
				addr, err := env.SymbolAddr("count")
				if err != nil {
					return 1
				}
				// Bump our privatized counter a few times.
				for i := 0; i < 5; i++ {
					v, _ := env.Task().Space().ReadU64(addr, nil)
					env.Task().Space().WriteU64(addr, v+1, nil)
					env.Task().SchedYield()
				}
				v, _ := env.Task().Space().ReadU64(addr, nil)
				fmt.Printf("  task %d: &count=%#x count=%d\n", env.Rank, addr, v)
				return int(v)
			},
		},
		"ioblast": {
			Name: "ioblast", PIE: true, TextSize: 4096,
			Symbols: []loader.Symbol{{Name: "buf", Size: 4096}},
			Main: func(envI interface{}) int {
				env := envI.(*pip.Env)
				t := env.Task()
				data := make([]byte, 4096)
				for i := 0; i < 4; i++ {
					fd, err := t.Open(fmt.Sprintf("/blast.%d.%d", env.Rank, i),
						fs.OCreate|fs.OWrOnly)
					if err != nil {
						return 1
					}
					t.Write(fd, data, false)
					t.Close(fd)
				}
				return 0
			},
		},
	}
}

func run(progName string, n int, modeName, machineName string) error {
	img := programs()[progName]
	if img == nil {
		return fmt.Errorf("unknown program %q", progName)
	}
	m := arch.ByName(machineName)
	if m == nil {
		return fmt.Errorf("unknown machine %q", machineName)
	}
	mode := pip.ProcessMode
	switch modeName {
	case "process":
	case "thread":
		mode = pip.ThreadMode
	default:
		return fmt.Errorf("unknown mode %q", modeName)
	}

	e := sim.New()
	k := kernel.New(e, m)
	fmt.Printf("launching %d x %s in PiP %s mode on %s\n", n, progName, mode, m.Name)
	pip.Launch(k, "pip-root", func(r *pip.Root) int {
		var procs []*pip.Process
		for i := 0; i < n; i++ {
			p, err := r.Spawn(img, mode, nil)
			if err != nil {
				fmt.Fprintln(os.Stderr, "spawn:", err)
				return 1
			}
			procs = append(procs, p)
		}
		if mode == pip.ProcessMode {
			for range procs {
				if _, _, err := r.WaitAny(); err != nil {
					fmt.Fprintln(os.Stderr, "wait:", err)
					return 1
				}
			}
		} else {
			for _, p := range procs {
				p.Join()
			}
		}
		return 0
	})
	if err := e.Run(); err != nil {
		return err
	}

	fmt.Printf("done at %v: %d syscalls, %d tasks ever created, %d mapped pages\n",
		e.Now(), k.Syscalls(), n+1, pagesOf(k))
	return nil
}

// pagesOf reports mapped pages of the single shared address space (all
// PiP tasks share the root's).
func pagesOf(k *kernel.Kernel) uint64 {
	// The root task has exited; count via the allocator instead.
	return k.Phys().Allocated()
}
