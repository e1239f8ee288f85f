// Quickstart: boot a ULP-PiP runtime on the simulated x86_64 machine,
// spawn three user-level processes from one PIE image, and demonstrate
// the two headline properties:
//
//  1. variable privatization — each ULP gets its own instance of the
//     image's static variables inside the one shared address space;
//  2. system-call consistency — getpid() inside a couple()/decouple()
//     bracket always returns the ULP's own PID, no matter which kernel
//     context happens to be scheduling it.
package main

import (
	"fmt"
	"log"

	ulppip "repro"
)

func main() {
	s := ulppip.NewSim(ulppip.Wallaby())

	prog := &ulppip.Image{
		Name:     "hello",
		PIE:      true,
		TextSize: 4096,
		Symbols: []ulppip.Symbol{
			{Name: "my_pid", Size: 8},
			{Name: "errno", Size: 8, TLS: true},
		},
		Main: func(envI interface{}) int {
			env := envI.(*ulppip.Env)

			// Run as a user-level thread: detach from our kernel
			// context so a scheduler core runs us...
			env.Decouple()
			raw := env.GetpidRaw() // whoever carries us right now
			good := env.Getpid()   // couple();getpid();decouple()
			fmt.Printf("  ULP %d: raw getpid=%d (scheduler!), bracketed getpid=%d (mine)\n",
				env.Rank, raw, good)

			// Record our PID in our own privatized variable.
			addr, err := env.SymbolAddr("my_pid")
			if err != nil {
				return 1
			}
			env.MemWrite(addr, []byte{byte(good)})

			env.Couple() // terminate as a kernel-level thread
			return 0
		},
	}

	if _, err := ulppip.Boot(s.Kernel, ulppip.Config{
		ProgCores:    []int{0, 1},
		SyscallCores: []int{2, 3},
		Idle:         ulppip.IdleBusyWait,
	}, func(rt *ulppip.Runtime) int {
		fmt.Println("spawning 3 ULPs from one PIE image...")
		for i := 0; i < 3; i++ {
			if _, err := rt.Spawn(prog, ulppip.ULPSpawnOpts{Scheduler: -1}); err != nil {
				log.Fatal(err)
			}
		}
		if _, err := rt.WaitAll(); err != nil {
			log.Fatal(err)
		}

		fmt.Println("privatized my_pid instances (same symbol, distinct addresses):")
		for _, u := range rt.ULPs() {
			addr, _ := u.Linked.SymbolAddr("my_pid")
			b := make([]byte, 1)
			rt.RootTask().MemRead(addr, b)
			fmt.Printf("  ULP %d: &my_pid=%#x  my_pid=%d  (KC pid %d)\n",
				u.Rank, addr, b[0], u.KC().TGID())
		}
		rt.Shutdown()
		return 0
	}); err != nil {
		log.Fatal(err)
	}

	if err := s.Run(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulation finished at virtual time %v\n", s.Now())
}
