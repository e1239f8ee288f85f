package probe

import "fmt"

// SiteID names one static site a fire can qualify its point with: a
// system-call, a fault-only injection site or a timer kind. The zero
// value names no site. Every fire at a static site carries both its ID
// (Ctx.ID), which programs branch and index on, and its name
// (Ctx.Site), taken from the same table entry, so a fire neither builds
// nor compares a string.
type SiteID uint8

// Sites. The system-calls come first, so Syscall is a range test.
const (
	siteNone SiteID = iota

	SiteGetpid
	SiteGettid
	SiteArchPrctl
	SiteOpen
	SiteWrite
	SiteRead
	SiteClose
	SiteLseek
	SiteUnlink
	SiteMmap
	SiteMunmap
	SiteFutexWait
	SiteFutexWake
	SiteFutexRequeue
	SiteSchedYield
	SiteNanosleep
	SiteWait
	SiteJoin
	SiteSigaction
	SiteSigprocmask
	SiteKill

	// Fault-only injection sites (fault:site), beside the syscall sites
	// open, write, read and futex_wait.
	SiteFutexSpurious
	SiteFutexLostWake
	SiteKCKill
	SiteSchedKill
	SiteAIOHelperKill
	SiteSchedDelay
	SiteFSSlow

	// timer:fire kinds.
	SiteTimerFutex
	SiteTimerSleep

	// NumSites is the number of valid sites plus one (index bound).
	NumSites
)

// lastSyscall is the highest system-call site.
const lastSyscall = SiteKill

var siteNames = [NumSites]string{
	SiteGetpid:        "getpid",
	SiteGettid:        "gettid",
	SiteArchPrctl:     "arch_prctl",
	SiteOpen:          "open",
	SiteWrite:         "write",
	SiteRead:          "read",
	SiteClose:         "close",
	SiteLseek:         "lseek",
	SiteUnlink:        "unlink",
	SiteMmap:          "mmap",
	SiteMunmap:        "munmap",
	SiteFutexWait:     "futex_wait",
	SiteFutexWake:     "futex_wake",
	SiteFutexRequeue:  "futex_requeue",
	SiteSchedYield:    "sched_yield",
	SiteNanosleep:     "nanosleep",
	SiteWait:          "wait",
	SiteJoin:          "join",
	SiteSigaction:     "sigaction",
	SiteSigprocmask:   "sigprocmask",
	SiteKill:          "kill",
	SiteFutexSpurious: "futex_spurious",
	SiteFutexLostWake: "futex_lost_wake",
	SiteKCKill:        "kc_kill",
	SiteSchedKill:     "sched_kill",
	SiteAIOHelperKill: "aio_helper_kill",
	SiteSchedDelay:    "sched_delay",
	SiteFSSlow:        "fs_slow",
	SiteTimerFutex:    "futex",
	SiteTimerSleep:    "sleep",
}

// String returns the site's name (e.g. "getpid").
func (id SiteID) String() string {
	if id > siteNone && id < NumSites {
		return siteNames[id]
	}
	return fmt.Sprintf("site(%d)", uint8(id))
}

// Syscall reports whether the site is a system-call, one the kernel
// fires syscall:enter and syscall:exit for.
func (id SiteID) Syscall() bool { return id > siteNone && id <= lastSyscall }

// SiteByName resolves a site name; the zero SiteID when unknown.
func SiteByName(name string) SiteID {
	for id := SiteID(1); id < NumSites; id++ {
		if siteNames[id] == name {
			return id
		}
	}
	return siteNone
}

// SetSite qualifies the fire with a static site: its ID and, from the
// same table entry, its name.
func (c *Ctx) SetSite(id SiteID) {
	c.ID = id
	c.Site = siteNames[id]
}
