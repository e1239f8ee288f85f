// Package sync is the contention lab: the classic mutual-exclusion
// algorithms of "Basic Lock Algorithms in Lightweight Thread
// Environments" (PAPERS.md) built over the simulated kernel's shared
// memory, spin costs and futex layer — test-and-set (TAS), test-and-
// test-and-set (TTAS), ticket, the queue locks MCS and CLH, and a
// glibc-style futex-backed adaptive mutex, plus condition variables
// whose broadcast drains through FUTEX_CMP_REQUEUE instead of a
// thundering herd.
//
// Every lock word lives in simulated memory, so tasks sharing an
// address space (PiP, threads) share the lock. Atomicity follows the
// simulator's interleaving model: tasks can only interleave where
// virtual time advances, so a read-modify-write charges the machine's
// AtomicOp cost *first* and then performs the memory operations at that
// instant with no further charge — the RMW is atomic by construction.
// Spin polls charge SpinNotice (the cross-core flag-observation
// latency), and because the simulated kernel is non-preemptive, every
// spin loop yields the core after DefaultSpins failed polls: an
// unbounded spin with the holder descheduled would never let the holder
// run. The loops run as the waiting task's spin continuation
// (kernel.Task.Spin), one poll per pass, so a poll costs no goroutine
// handoff; each lock keeps its idle spin slots on a free list.
//
// With a metrics registry installed on the kernel, each lock feeds an
// acquisition-latency histogram (sync.<name>.acquire_ps) and counters
// for acquisitions and contended acquisitions; without one the hot
// path costs a nil check. A Fairness recorder can be attached to any
// lock to pin handoff order (ticket/MCS/CLH are strictly FIFO at their
// queueing point) or bound bypasses for the unfair locks.
package sync

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// DefaultSpins is the poll-burst length between yields while
// busy-waiting, and the adaptive mutex's spin budget before sleeping.
const DefaultSpins = 16

// Config is the lock configuration New and NewMutex take. It has no
// fields: every algorithm spins DefaultSpins polls between yields. The
// type stays so that existing New(t, name, Config{}) calls compile.
type Config struct{}

// Lock is one mutual-exclusion algorithm over simulated memory. Locks
// are not reentrant; Unlock must be called by the holder.
type Lock interface {
	// Name returns the algorithm name ("tas", "ticket", ...).
	Name() string
	// Lock acquires the lock, spinning and/or sleeping per algorithm.
	Lock(t *kernel.Task)
	// Unlock releases the lock and hands off per algorithm.
	Unlock(t *kernel.Task)
	// SetFairness attaches a handoff-order recorder (nil detaches).
	SetFairness(f *Fairness)
}

// Names lists the lock algorithms in presentation order.
func Names() []string { return []string{"tas", "ttas", "ticket", "mcs", "clh", "futex"} }

// FIFO reports whether the named algorithm guarantees strict FIFO
// handoff at its queueing point (ticket number, queue-tail swap). The
// explorer's fairness oracle pins handoff order for these and only
// bounds bypasses for the rest.
func FIFO(name string) bool {
	switch name {
	case "ticket", "mcs", "clh":
		return true
	}
	return false
}

// New builds the named lock with its words allocated in the creator's
// address space (all tasks contending for it must share that space).
func New(creator *kernel.Task, name string, _ Config) (Lock, error) {
	b, err := newBase(creator, name)
	if err != nil {
		return nil, err
	}
	switch name {
	case "tas":
		return newTAS(b)
	case "ttas":
		return newTTAS(b)
	case "ticket":
		return newTicket(b)
	case "mcs":
		return newMCS(b)
	case "clh":
		return newCLH(b)
	case "futex":
		return newMutex(b)
	}
	return nil, fmt.Errorf("sync: unknown lock algorithm %q (want one of %v)", name, Names())
}

const lockProt = mem.ProtRead | mem.ProtWrite

// lockBase carries what every algorithm needs: the kernel (for costs,
// yields and futexes), the shared address space holding the lock words,
// the free list of spin slots, and the optional fairness/metrics hooks.
type lockBase struct {
	k     *kernel.Kernel
	space *mem.AddressSpace
	costs *arch.CostModel
	name  string
	fair  *Fairness
	free  *spinSlot // idle spin slots (see spin)

	hAcq       *metrics.Histogram
	cAcqs      *metrics.Counter
	cContended *metrics.Counter
}

func newBase(creator *kernel.Task, name string) (lockBase, error) {
	b := lockBase{
		k:     creator.Kernel(),
		space: creator.Space(),
		name:  name,
	}
	b.costs = &b.k.Machine().Costs
	if reg := b.k.Metrics(); reg != nil {
		b.hAcq = reg.Histogram("sync." + name + ".acquire_ps")
		b.cAcqs = reg.Counter("sync." + name + ".acquisitions")
		b.cContended = reg.Counter("sync." + name + ".contended")
	}
	return b, nil
}

func (b *lockBase) Name() string            { return b.name }
func (b *lockBase) SetFairness(f *Fairness) { b.fair = f }

// word allocates one zeroed 8-byte lock word. Allocation happens at
// construction (never on the acquisition path), charged to nobody.
func (b *lockBase) word(tag string) (uint64, error) {
	return b.space.Mmap(8, lockProt, "lock."+b.name+"."+tag, true, nil)
}

// load reads a shared word with no charge — callers pay AtomicOp or
// SpinNotice first, making the access atomic at that instant.
func (b *lockBase) load(addr uint64) uint64 {
	v, err := b.space.ReadU64(addr, nil)
	if err != nil {
		panic(fmt.Sprintf("sync: %s: load %#x: %v", b.name, addr, err))
	}
	return v
}

func (b *lockBase) storeRaw(addr, v uint64) {
	if err := b.space.WriteU64(addr, v, nil); err != nil {
		panic(fmt.Sprintf("sync: %s: store %#x: %v", b.name, addr, err))
	}
}

// store is a charged store to a shared word (a release store: the
// charge advances time first, so the new value is visible to any poll
// that runs at or after this instant).
func (b *lockBase) store(t *kernel.Task, addr, v uint64) {
	t.Charge(b.costs.AtomicOp)
	b.storeRaw(addr, v)
}

// swap atomically exchanges the word's value: the AtomicOp charge
// advances time, then read and write happen at one instant.
func (b *lockBase) swap(t *kernel.Task, addr, v uint64) uint64 {
	t.Charge(b.costs.AtomicOp)
	old := b.load(addr)
	b.storeRaw(addr, v)
	return old
}

// cas atomically compares-and-swaps, reporting success.
func (b *lockBase) cas(t *kernel.Task, addr, old, new uint64) bool {
	t.Charge(b.costs.AtomicOp)
	if b.load(addr) != old {
		return false
	}
	b.storeRaw(addr, new)
	return true
}

// fetchAdd atomically adds d, returning the prior value.
func (b *lockBase) fetchAdd(t *kernel.Task, addr, d uint64) uint64 {
	t.Charge(b.costs.AtomicOp)
	old := b.load(addr)
	b.storeRaw(addr, old+d)
	return old
}

// noteAcquire publishes one successful acquisition: the latency
// histogram (picoseconds since Lock entry), the counters, and the
// fairness recorder's acquisition event.
func (b *lockBase) noteAcquire(t *kernel.Task, start sim.Time, contended bool) {
	if b.hAcq != nil {
		b.hAcq.Observe(int64(b.k.Engine().Now().Sub(start)))
	}
	if b.cAcqs != nil {
		b.cAcqs.Inc()
		if contended {
			b.cContended.Inc()
		}
	}
	if b.fair != nil {
		b.fair.acquire(t)
	}
}

// noteArrive publishes the algorithm's queueing point to the fairness
// recorder — the instant its handoff order is decided (ticket draw,
// tail swap, first TAS attempt).
func (b *lockBase) noteArrive(t *kernel.Task) {
	if b.fair != nil {
		b.fair.arrive(t)
	}
}

func (b *lockBase) now() sim.Time { return b.k.Engine().Now() }
