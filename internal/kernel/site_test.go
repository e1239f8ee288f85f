package kernel

import (
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/fs"
	"repro/internal/probe"
	"repro/internal/sim"
)

// TestSysFrameFitsRegisters pins sysFrame at four words and four
// fields. Go keeps a struct in registers only within those limits
// (ssa.CanSSA), and every system-call passes its frame by value from
// sysEnter to sysExit: a sysEnter/sysExit-shaped round trip measured
// 10.2 ns at 40 B against 2.5 ns at 24 B on a 2-vCPU Xeon. A fifth
// field or word must fail here, not slow every syscall.
func TestSysFrameFitsRegisters(t *testing.T) {
	if size := unsafe.Sizeof(sysFrame{}); size > 4*unsafe.Sizeof(uintptr(0)) {
		t.Errorf("sysFrame is %d B, want at most four words", size)
	}
	if n := reflect.TypeOf(sysFrame{}).NumField(); n > 4 {
		t.Errorf("sysFrame has %d fields, want at most 4", n)
	}
}

// TestSyscallSitesInTable makes every system-call the kernel enters and
// checks the probe site table against them: each syscall:enter and
// syscall:exit carries a syscall ID whose table name is its Site, and
// the table's syscalls are exactly the calls entered, so `syscall=`
// filters accept every real call and nothing else.
func TestSyscallSitesInTable(t *testing.T) {
	_, k := newKernel()
	entered := map[probe.SiteID]int{}
	k.Probes().Attach("sites", func(c *probe.Ctx) probe.Verdict {
		if !c.ID.Syscall() || c.ID.String() != c.Site {
			t.Errorf("%v fired with ID %v and Site %q", c.Point, c.ID, c.Site)
		}
		if c.Point == probe.PSyscallEnter {
			entered[c.ID]++
		} else {
			entered[c.ID]--
		}
		return probe.Verdict{}
	}, probe.PSyscallEnter, probe.PSyscallExit)
	runMain(t, k, func(task *Task) int {
		task.Getpid()
		task.Gettid()
		task.LoadTLS(1) // arch_prctl on Wallaby
		fd, err := task.Open("/x", fs.OCreate|fs.ORdWr)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 2)
		task.Write(fd, []byte("ab"), false)
		task.Seek(fd, 0)
		task.Read(fd, buf)
		task.Close(fd)
		task.Unlink("/x")
		va, err := task.Mmap(1<<12, true)
		if err != nil {
			t.Fatal(err)
		}
		task.FutexWait(va, 1) // the word holds 0: EAGAIN
		task.FutexWake(va, 1)
		task.FutexRequeue(va, 0, 1, 1, va+8)
		task.Munmap(va, 1<<12)
		task.SchedYield()
		task.Nanosleep(sim.Microsecond)
		task.Sigaction(SIGUSR1, func(*Task, int) {})
		task.Sigprocmask(0)
		task.Kill(task.PID(), SIGUSR1)
		task.Clone("proc", PiPProcessFlags, func(*Task) int { return 0 })
		task.Wait()
		task.Join(task.Clone("thread", PThreadFlags, func(*Task) int { return 0 }))
		return 0
	})
	for id := probe.SiteID(1); id < probe.NumSites; id++ {
		n, ok := entered[id]
		if id.Syscall() && !ok {
			t.Errorf("table syscall %v was never entered", id)
		}
		if n != 0 {
			t.Errorf("%v: %d more enters than exits", id, n)
		}
	}
}
