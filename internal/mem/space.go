package mem

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"repro/internal/sim"
)

// Costs are the memory-system cost parameters, filled in from the machine
// model by the kernel layer.
type Costs struct {
	MinorFault sim.Duration // install a PTE for an anonymous page
	MajorFault sim.Duration // additionally fetch/zero backing content
	TLBMiss    sim.Duration // hardware page walk
	CopyBytePS float64      // per-byte copy cost (picoseconds)
}

// Stats counts memory events per address space.
type Stats struct {
	MinorFaults  uint64
	MajorFaults  uint64
	TLBMisses    uint64
	BytesRead    uint64
	BytesWritten uint64
}

// AddressSpace is one virtual address space: a page table plus a VMA set.
//
// PiP's address-space sharing is modeled by several tasks holding a
// pointer to the *same* AddressSpace — exactly one page table, so a page
// faulted in by one task is visible to all (minor faults happen once per
// page regardless of how many tasks share the space; contrast with the
// shared-memory model, where ShareMapping duplicates PTEs into other
// spaces and every space takes its own faults).
type AddressSpace struct {
	ID    uint64
	phys  *PhysMemory
	pt    PageTable
	vmas  vmaSet
	costs Costs
	stats Stats
	tlb   *TLB

	// hot is the host translation cache: a page's VMA and PTE, so a
	// Translate that hits skips the VMA search and the table walk. It
	// only saves host time; see Translate.
	hot [hotSize]hotEntry

	attached int // tasks currently using this space
}

// hotSize is the number of host translation cache entries, direct
// mapped by page number.
const hotSize = 64

// hotEntry caches one page's translation; vma == nil marks it empty.
type hotEntry struct {
	page uint64
	vma  *VMA
	pte  *PTE
}

// nextSpaceID is atomic: independent simulations may stand up kernels
// concurrently (the bench sweep pool). IDs only need to be unique — they
// key futex words within one kernel and are never ordered or printed.
var nextSpaceID atomic.Uint64

// NewAddressSpace creates an empty space over the given physical memory.
func NewAddressSpace(phys *PhysMemory, costs Costs) *AddressSpace {
	return &AddressSpace{
		ID:    nextSpaceID.Add(1),
		phys:  phys,
		costs: costs,
		tlb:   NewTLB(64),
	}
}

// Attach records that one more task uses this space.
func (as *AddressSpace) Attach() { as.attached++ }

// Detach records that a task stopped using this space.
func (as *AddressSpace) Detach() {
	if as.attached <= 0 {
		panic("mem: Detach without Attach")
	}
	as.attached--
}

// Attached reports the number of tasks sharing the space.
func (as *AddressSpace) Attached() int { return as.attached }

// Stats returns a copy of the space's counters.
func (as *AddressSpace) Stats() Stats { return as.stats }

// PageTable exposes the underlying table (read-mostly, for tests and the
// loader).
func (as *AddressSpace) PageTable() *PageTable { return &as.pt }

// VMAs returns the areas in address order.
func (as *AddressSpace) VMAs() []*VMA {
	out := make([]*VMA, len(as.vmas.areas))
	copy(out, as.vmas.areas)
	return out
}

// FindVMA returns the area containing addr, or nil.
func (as *AddressSpace) FindVMA(addr uint64) *VMA { return as.vmas.find(addr) }

// MapRegion creates a VMA at a fixed address (loader use). If populated,
// all pages are faulted in immediately and the per-page fault cost is
// charged to c.
func (as *AddressSpace) MapRegion(start, size uint64, prot Prot, kind VMAKind, label string, populated bool, c Charger) (*VMA, error) {
	return as.mapRegion(start, size, prot, kind, label, populated, false, c)
}

func (as *AddressSpace) mapRegion(start, size uint64, prot Prot, kind VMAKind, label string, populated, huge bool, c Charger) (*VMA, error) {
	align := uint64(PageSize)
	if huge {
		align = HugePageSize
	}
	if start%align != 0 || size == 0 {
		return nil, ErrBadRange
	}
	size = (size + align - 1) &^ (align - 1)
	end := start + size
	if end > AddrLimit || end <= start {
		return nil, ErrBadRange
	}
	if as.vmas.overlaps(start, end) {
		return nil, fmt.Errorf("%w: %s+%#x", ErrOverlap, fmtAddr(start), size)
	}
	v := &VMA{Start: start, End: end, Prot: prot, Kind: kind, Label: label, Populated: populated, Huge: huge}
	as.vmas.insert(v)
	if populated {
		for va := start; va < end; va += v.FaultGranularity() {
			if err := as.populate(va, v, c); err != nil {
				// Leave no trace: the caller gets no address to
				// unmap. Munmap cannot fail, v is exactly [start, end).
				_ = as.Munmap(start, size)
				return nil, err
			}
		}
	}
	return v, nil
}

// Mmap creates an anonymous mapping of size bytes in the mmap region,
// searching downward from MmapBase, and returns its start address.
func (as *AddressSpace) Mmap(size uint64, prot Prot, label string, populated bool, c Charger) (uint64, error) {
	size = PageCeil(size)
	if size == 0 {
		return 0, ErrBadRange
	}
	start := as.vmas.gapBelow(MmapBase, size)
	if start == 0 {
		return 0, ErrNoMemory
	}
	if _, err := as.MapRegion(start, size, prot, VMAAnon, label, populated, c); err != nil {
		return 0, err
	}
	return start, nil
}

// MmapHuge creates an anonymous MAP_HUGETLB mapping backed by 2 MiB
// pages. Size and placement are huge-page aligned.
func (as *AddressSpace) MmapHuge(size uint64, prot Prot, label string, populated bool, c Charger) (uint64, error) {
	size = (size + HugePageSize - 1) &^ uint64(HugePageSize-1)
	if size == 0 {
		return 0, ErrBadRange
	}
	start := as.vmas.gapBelow(MmapBase, size+HugePageSize)
	if start == 0 {
		return 0, ErrNoMemory
	}
	start = start &^ uint64(HugePageSize-1) // align down inside the gap
	if as.vmas.overlaps(start, start+size) {
		return 0, ErrNoMemory
	}
	if _, err := as.mapRegion(start, size, prot, VMAAnon, label, populated, true, c); err != nil {
		return 0, err
	}
	return start, nil
}

// Munmap removes the VMA exactly covering [start, start+size) and frees
// its frames. It is the only path that removes a PTE or a VMA, so it is
// the only one that clears the host translation cache.
func (as *AddressSpace) Munmap(start, size uint64) error {
	v := as.vmas.find(start)
	if v == nil || v.Start != start || v.Len() != PageCeil(size) {
		return ErrBadRange
	}
	clear(as.hot[:])
	for va := v.Start; va < v.End; va += PageSize {
		if pte := as.pt.Unmap(va); pte != nil {
			as.tlb.Invalidate(va)
			as.phys.Put(pte.Frame)
		}
	}
	if v.Huge {
		// Huge-page areas cache huge-granule TLB keys.
		for va := v.Start; va < v.End; va += HugePageSize {
			as.tlb.Invalidate(va)
		}
	}
	as.vmas.remove(v)
	return nil
}

// Protect changes the protection of the VMA containing addr (whole-VMA
// mprotect; sufficient for the loader's needs).
func (as *AddressSpace) Protect(addr uint64, prot Prot) error {
	v := as.vmas.find(addr)
	if v == nil {
		return ErrSegfault
	}
	v.Prot = prot
	for va := v.Start; va < v.End; va += PageSize {
		if pte := as.pt.Lookup(va); pte != nil {
			pte.Prot = prot
		}
	}
	return nil
}

// populate services one fault at va inside VMA v: it maps the whole
// fault granule (one base page, or 512 of them under a huge-page VMA)
// and charges a single minor fault (anonymous) or major fault
// (file-backed) — huge pages exist precisely to amortize faults.
func (as *AddressSpace) populate(va uint64, v *VMA, c Charger) error {
	gran := v.FaultGranularity()
	base := va &^ (gran - 1)
	for page := base; page < base+gran && page < v.End; page += PageSize {
		if as.pt.Lookup(page) != nil {
			continue
		}
		frame, err := as.phys.Alloc()
		if err != nil {
			return err
		}
		as.phys.Get(frame)
		as.pt.Map(page, &PTE{Frame: frame, Prot: v.Prot})
	}
	if v.Kind == VMAFile {
		as.stats.MajorFaults++
		charge(c, as.costs.MajorFault)
	} else {
		as.stats.MinorFaults++
		charge(c, as.costs.MinorFault)
	}
	return nil
}

// Translate resolves va to its PTE, faulting the page in on demand. The
// write flag selects the required permission. TLB hits are free; misses
// charge a page walk.
//
// The host translation cache stands in for the VMA search and the table
// walk only. Its entries stay valid until Munmap clears them: nothing
// else removes a PTE or a VMA, and Protect, ForkCoW and breakCoW change
// the cached objects in place. So after a hit the protection check, the
// simulated TLB, the COW break and the A/D bits run exactly as after a
// miss, and every charge and count is the same either way.
func (as *AddressSpace) Translate(va uint64, write bool, c Charger) (*PTE, error) {
	page := PageFloor(va)
	hot := &as.hot[page>>PageShift%hotSize]
	v, pte := hot.vma, hot.pte
	if v == nil || hot.page != page {
		if v = as.vmas.find(va); v == nil {
			return nil, fmt.Errorf("%w at %s", ErrSegfault, fmtAddr(va))
		}
		pte = nil
	}
	need := ProtRead
	if write {
		need = ProtWrite
	}
	if v.Prot&need == 0 {
		return nil, fmt.Errorf("%w: %s access to %s VMA at %s", ErrProtViolation, need, v.Prot, fmtAddr(va))
	}
	// One TLB entry covers the VMA's translation granule: huge-page
	// areas need 512x fewer entries (and walks).
	gran := v.FaultGranularity()
	tlbKey := va &^ (gran - 1)
	if !as.tlb.Hit(tlbKey) {
		as.stats.TLBMisses++
		charge(c, as.costs.TLBMiss)
		as.tlb.Insert(tlbKey)
	}
	if pte == nil {
		if pte = as.pt.Lookup(page); pte == nil {
			if err := as.populate(page, v, c); err != nil {
				return nil, err
			}
			pte = as.pt.Lookup(page)
		}
		*hot = hotEntry{page, v, pte}
	}
	pte.Accessed = true
	if write {
		if pte.COW {
			if err := as.breakCoW(pte, c); err != nil {
				return nil, err
			}
		}
		pte.Dirty = true
	}
	return pte, nil
}

// Write copies data into the space at va, faulting pages as needed and
// charging copy time.
func (as *AddressSpace) Write(va uint64, data []byte, c Charger) error {
	off := 0
	for off < len(data) {
		cur := va + uint64(off)
		pte, err := as.Translate(cur, true, c)
		if err != nil {
			return err
		}
		off += pte.Frame.writeAt(int(cur&(PageSize-1)), data[off:])
	}
	as.stats.BytesWritten += uint64(len(data))
	charge(c, as.copyCost(len(data)))
	return nil
}

// Read copies len(buf) bytes from the space at va into buf.
func (as *AddressSpace) Read(va uint64, buf []byte, c Charger) error {
	off := 0
	for off < len(buf) {
		cur := va + uint64(off)
		pte, err := as.Translate(cur, false, c)
		if err != nil {
			return err
		}
		off += pte.Frame.readAt(int(cur&(PageSize-1)), buf[off:])
	}
	as.stats.BytesRead += uint64(len(buf))
	charge(c, as.copyCost(len(buf)))
	return nil
}

// copyCost is the time to copy n bytes.
func (as *AddressSpace) copyCost(n int) sim.Duration {
	return sim.Duration(as.costs.CopyBytePS * float64(n))
}

// WriteU64 stores a little-endian uint64 at va. A word inside one page
// takes one Translate and a direct store; it charges and counts exactly
// what an 8-byte Write does.
func (as *AddressSpace) WriteU64(va uint64, val uint64, c Charger) error {
	off := int(va & (PageSize - 1))
	if off > PageSize-8 {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], val)
		return as.Write(va, b[:], c)
	}
	pte, err := as.Translate(va, true, c)
	if err != nil {
		return err
	}
	pte.Frame.storeU64(off, val)
	as.stats.BytesWritten += 8
	charge(c, as.copyCost(8))
	return nil
}

// ReadU64 loads a little-endian uint64 from va. A word inside one page
// takes one Translate and a direct load; it charges and counts exactly
// what an 8-byte Read does.
func (as *AddressSpace) ReadU64(va uint64, c Charger) (uint64, error) {
	off := int(va & (PageSize - 1))
	if off > PageSize-8 {
		var b [8]byte
		if err := as.Read(va, b[:], c); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(b[:]), nil
	}
	pte, err := as.Translate(va, false, c)
	if err != nil {
		return 0, err
	}
	v := pte.Frame.loadU64(off)
	as.stats.BytesRead += 8
	charge(c, as.copyCost(8))
	return v, nil
}

// ForkCoW creates a copy-on-write duplicate of the address space — the
// classical fork(2) semantics PiP's shared-space spawn is an alternative
// to. Every mapped page is shared read-only between parent and child;
// the first write on either side (while the frame is still shared)
// copies the page. The fork itself charges only the page-table copy
// (one walk-cost per mapped page), which is why fork is cheap and the
// copies are lazy.
func (as *AddressSpace) ForkCoW(c Charger) *AddressSpace {
	dst := NewAddressSpace(as.phys, as.costs)
	for _, v := range as.vmas.areas {
		cp := *v
		dst.vmas.insert(&cp)
	}
	as.pt.Range(func(va uint64, pte *PTE) bool {
		pte.COW = true
		as.phys.Get(pte.Frame)
		dst.pt.Map(va, &PTE{Frame: pte.Frame, Prot: pte.Prot, COW: true})
		charge(c, as.costs.TLBMiss) // copying one PTE ~ one table walk
		return true
	})
	// Writable cached translations of the parent are now stale (writes
	// must trap to break COW).
	as.tlb.Flush()
	return dst
}

// breakCoW gives the PTE a private copy of its frame (or exclusive
// ownership if nobody else references it anymore).
func (as *AddressSpace) breakCoW(pte *PTE, c Charger) error {
	if pte.Frame.Refs() == 1 {
		pte.COW = false
		return nil
	}
	fresh, err := as.phys.Alloc()
	if err != nil {
		return err
	}
	as.phys.Get(fresh)
	fresh.writeAt(0, pte.Frame.data) // only the written prefix
	as.phys.Put(pte.Frame)
	pte.Frame = fresh
	pte.COW = false
	as.stats.MinorFaults++ // the COW write fault
	charge(c, as.costs.MinorFault+sim.Duration(as.costs.CopyBytePS*PageSize))
	return nil
}

// ShareMapping maps the frames backing [start, start+size) of this space
// into dst at the address dstStart, modeling POSIX shared memory: the
// physical pages are shared but dst gets its *own* PTEs, so dst pays its
// own minor faults (charged immediately here, per the shared-memory
// behaviour the paper contrasts with address-space sharing). The source
// range must be fully populated; if it is not, dst is left untouched.
func (as *AddressSpace) ShareMapping(dst *AddressSpace, start, size, dstStart uint64, prot Prot, c Charger) error {
	size = PageCeil(size)
	if as.vmas.find(start) == nil {
		return ErrSegfault
	}
	if dst.vmas.overlaps(dstStart, dstStart+size) {
		return ErrOverlap
	}
	for off := uint64(0); off < size; off += PageSize {
		if as.pt.Lookup(start+off) == nil {
			return fmt.Errorf("%w: source page %s not populated", ErrSegfault, fmtAddr(start+off))
		}
	}
	v := &VMA{Start: dstStart, End: dstStart + size, Prot: prot, Kind: VMAAnon, Label: "shm", Populated: true}
	dst.vmas.insert(v)
	for off := uint64(0); off < size; off += PageSize {
		pte := as.pt.Lookup(start + off)
		dst.phys.Get(pte.Frame)
		dst.pt.Map(dstStart+off, &PTE{Frame: pte.Frame, Prot: prot})
		dst.stats.MinorFaults++
		charge(c, dst.costs.MinorFault)
	}
	return nil
}
