package mem

import (
	"bytes"
	"encoding/binary"
	"errors"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func testCosts() Costs {
	return Costs{
		MinorFault: 1000 * sim.Nanosecond,
		MajorFault: 3000 * sim.Nanosecond,
		TLBMiss:    40 * sim.Nanosecond,
		CopyBytePS: 100,
	}
}

type countCharger struct{ total sim.Duration }

func (c *countCharger) Charge(d sim.Duration) { c.total += d }

func newSpace() *AddressSpace {
	return NewAddressSpace(NewPhysMemory(0), testCosts())
}

func TestMmapReadWriteRoundTrip(t *testing.T) {
	as := newSpace()
	addr, err := as.Mmap(3*PageSize, ProtRead|ProtWrite, "test", false, nil)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("hello, address space")
	if err := as.Write(addr+100, data, nil); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(data))
	if err := as.Read(addr+100, buf, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data) {
		t.Errorf("read %q, want %q", buf, data)
	}
}

func TestWriteAcrossPageBoundary(t *testing.T) {
	as := newSpace()
	addr, _ := as.Mmap(2*PageSize, ProtRead|ProtWrite, "t", false, nil)
	data := make([]byte, 300)
	for i := range data {
		data[i] = byte(i)
	}
	start := addr + PageSize - 150 // straddles the boundary
	if err := as.Write(start, data, nil); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 300)
	if err := as.Read(start, buf, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data) {
		t.Error("boundary-straddling round trip corrupted data")
	}
}

func TestSegfaultOnUnmapped(t *testing.T) {
	as := newSpace()
	err := as.Write(0xdead000, []byte{1}, nil)
	if !errors.Is(err, ErrSegfault) {
		t.Errorf("err = %v, want ErrSegfault", err)
	}
}

func TestProtViolation(t *testing.T) {
	as := newSpace()
	addr, _ := as.Mmap(PageSize, ProtRead, "ro", false, nil)
	err := as.Write(addr, []byte{1}, nil)
	if !errors.Is(err, ErrProtViolation) {
		t.Errorf("write to read-only: err = %v, want ErrProtViolation", err)
	}
	// Reading must still work.
	if err := as.Read(addr, make([]byte, 1), nil); err != nil {
		t.Errorf("read of read-only failed: %v", err)
	}
}

func TestMinorFaultOncePerPage(t *testing.T) {
	as := newSpace()
	addr, _ := as.Mmap(4*PageSize, ProtRead|ProtWrite, "t", false, nil)
	for i := 0; i < 10; i++ {
		if err := as.Write(addr, []byte{byte(i)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := as.Stats().MinorFaults; got != 1 {
		t.Errorf("MinorFaults = %d after repeated access to one page, want 1", got)
	}
	// Touch the remaining pages.
	for p := uint64(1); p < 4; p++ {
		as.Write(addr+p*PageSize, []byte{1}, nil)
	}
	if got := as.Stats().MinorFaults; got != 4 {
		t.Errorf("MinorFaults = %d, want 4", got)
	}
}

func TestPopulatedMappingNeverFaultsLater(t *testing.T) {
	as := newSpace()
	ch := &countCharger{}
	addr, err := as.Mmap(8*PageSize, ProtRead|ProtWrite, "pop", true, ch)
	if err != nil {
		t.Fatal(err)
	}
	if got := as.Stats().MinorFaults; got != 8 {
		t.Fatalf("populate faulted %d pages, want 8", got)
	}
	paid := ch.total
	if paid < 8*testCosts().MinorFault {
		t.Errorf("populate charged %v, want >= %v", paid, 8*testCosts().MinorFault)
	}
	// Subsequent access adds no faults.
	as.Write(addr+5*PageSize, []byte{1}, nil)
	if got := as.Stats().MinorFaults; got != 8 {
		t.Errorf("MinorFaults grew to %d after access to populated area", got)
	}
}

// TestSharedSpaceFaultsOncePerPageTotal reproduces the paper's §IV claim:
// with address-space sharing, minor faults happen once per page in the
// address space regardless of how many tasks share it, whereas with the
// shared-memory model every attached space faults every page itself.
func TestSharedSpaceFaultsOncePerPageTotal(t *testing.T) {
	phys := NewPhysMemory(0)

	// Address-space sharing: N "tasks" all use the same space.
	shared := NewAddressSpace(phys, testCosts())
	addr, _ := shared.Mmap(16*PageSize, ProtRead|ProtWrite, "data", false, nil)
	for task := 0; task < 4; task++ {
		for p := uint64(0); p < 16; p++ {
			shared.Write(addr+p*PageSize, []byte{byte(task)}, nil)
		}
	}
	if got := shared.Stats().MinorFaults; got != 16 {
		t.Errorf("address-space sharing: %d faults, want 16 (once per page)", got)
	}

	// Shared-memory model: each process has its own space and maps the
	// same physical pages.
	src := NewAddressSpace(phys, testCosts())
	srcAddr, _ := src.Mmap(16*PageSize, ProtRead|ProtWrite, "shm", true, nil)
	faults := src.Stats().MinorFaults
	for proc := 0; proc < 3; proc++ {
		dst := NewAddressSpace(phys, testCosts())
		if err := src.ShareMapping(dst, srcAddr, 16*PageSize, srcAddr, ProtRead|ProtWrite, nil); err != nil {
			t.Fatal(err)
		}
		faults += dst.Stats().MinorFaults
	}
	if faults != 16*4 {
		t.Errorf("shared-memory model: %d faults total, want 64 (per process per page)", faults)
	}
}

func TestShareMappingSharesFrames(t *testing.T) {
	phys := NewPhysMemory(0)
	a := NewAddressSpace(phys, testCosts())
	b := NewAddressSpace(phys, testCosts())
	addr, _ := a.Mmap(PageSize, ProtRead|ProtWrite, "shm", true, nil)
	if err := a.ShareMapping(b, addr, PageSize, addr, ProtRead|ProtWrite, nil); err != nil {
		t.Fatal(err)
	}
	// A write through one space is visible through the other (same frame).
	if err := a.Write(addr, []byte("ping"), nil); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if err := b.Read(addr, buf, nil); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "ping" {
		t.Errorf("read %q through sharing space, want ping", buf)
	}
}

func TestMunmapFreesFrames(t *testing.T) {
	phys := NewPhysMemory(0)
	as := NewAddressSpace(phys, testCosts())
	addr, _ := as.Mmap(4*PageSize, ProtRead|ProtWrite, "t", true, nil)
	if phys.Allocated() != 4 {
		t.Fatalf("allocated = %d, want 4", phys.Allocated())
	}
	if err := as.Munmap(addr, 4*PageSize); err != nil {
		t.Fatal(err)
	}
	if phys.Allocated() != 0 {
		t.Errorf("allocated = %d after munmap, want 0", phys.Allocated())
	}
	if err := as.Write(addr, []byte{1}, nil); !errors.Is(err, ErrSegfault) {
		t.Errorf("access after munmap: err = %v, want ErrSegfault", err)
	}
}

func TestMmapPlacementsDisjoint(t *testing.T) {
	as := newSpace()
	type r struct{ lo, hi uint64 }
	var regions []r
	for i := 0; i < 20; i++ {
		size := uint64((i%3 + 1)) * PageSize
		addr, err := as.Mmap(size, ProtRead|ProtWrite, "t", false, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range regions {
			if addr < o.hi && o.lo < addr+size {
				t.Fatalf("mmap overlap: [%x,%x) vs [%x,%x)", addr, addr+size, o.lo, o.hi)
			}
		}
		regions = append(regions, r{addr, addr + size})
	}
}

func TestMapRegionOverlapRejected(t *testing.T) {
	as := newSpace()
	if _, err := as.MapRegion(TextBase, 2*PageSize, ProtRead, VMAText, "a", false, nil); err != nil {
		t.Fatal(err)
	}
	_, err := as.MapRegion(TextBase+PageSize, 2*PageSize, ProtRead, VMAText, "b", false, nil)
	if !errors.Is(err, ErrOverlap) {
		t.Errorf("err = %v, want ErrOverlap", err)
	}
}

func TestProtectAppliesToVMAAndPTEs(t *testing.T) {
	as := newSpace()
	addr, _ := as.Mmap(PageSize, ProtRead|ProtWrite, "t", true, nil)
	if err := as.Protect(addr, ProtRead); err != nil {
		t.Fatal(err)
	}
	if err := as.Write(addr, []byte{1}, nil); !errors.Is(err, ErrProtViolation) {
		t.Errorf("write after mprotect: err = %v, want ErrProtViolation", err)
	}
}

func TestU64RoundTrip(t *testing.T) {
	as := newSpace()
	addr, _ := as.Mmap(PageSize, ProtRead|ProtWrite, "t", false, nil)
	f := func(v uint64, off uint16) bool {
		o := uint64(off % (PageSize - 8))
		if err := as.WriteU64(addr+o, v, nil); err != nil {
			return false
		}
		got, err := as.ReadU64(addr+o, nil)
		return err == nil && got == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// A populated mapping that runs out of frames fails as a whole: the
// caller gets no address to unmap, so nothing of it may survive.
func TestOutOfPhysicalMemory(t *testing.T) {
	phys := NewPhysMemory(2)
	as := NewAddressSpace(phys, testCosts())
	_, err := as.Mmap(3*PageSize, ProtRead|ProtWrite, "big", true, nil)
	if !errors.Is(err, ErrNoMemory) {
		t.Errorf("err = %v, want ErrNoMemory", err)
	}
	assertEmptySpace(t, as, phys)

	// Same for a huge mapping that fails in its second 2 MiB granule.
	phys = NewPhysMemory(HugePageSize/PageSize + 1)
	as = NewAddressSpace(phys, testCosts())
	if _, err := as.MmapHuge(2*HugePageSize, ProtRead|ProtWrite, "huge", true, nil); !errors.Is(err, ErrNoMemory) {
		t.Errorf("huge: err = %v, want ErrNoMemory", err)
	}
	assertEmptySpace(t, as, phys)
}

// assertEmptySpace fails unless as has no VMA and no mapped page and
// phys has no frame in use.
func assertEmptySpace(t *testing.T, as *AddressSpace, phys *PhysMemory) {
	t.Helper()
	if n := len(as.VMAs()); n != 0 {
		t.Errorf("%d VMAs left behind, want 0", n)
	}
	if n := as.PageTable().Mapped(); n != 0 {
		t.Errorf("%d pages left mapped, want 0", n)
	}
	if n := phys.Allocated(); n != 0 {
		t.Errorf("%d frames left allocated, want 0", n)
	}
}

// A share whose source range has a hole fails before it touches dst, so
// a valid share at the same address afterwards succeeds.
func TestShareMappingFailureLeavesNoTrace(t *testing.T) {
	phys := NewPhysMemory(0)
	src := NewAddressSpace(phys, testCosts())
	dst := NewAddressSpace(phys, testCosts())
	addr, _ := src.Mmap(3*PageSize, ProtRead|ProtWrite, "shm", false, nil)
	src.Write(addr, []byte("page0"), nil) // pages 1 and 2 stay unpopulated

	ch := &countCharger{}
	err := src.ShareMapping(dst, addr, 3*PageSize, addr, ProtRead|ProtWrite, ch)
	if !errors.Is(err, ErrSegfault) {
		t.Fatalf("err = %v, want ErrSegfault", err)
	}
	if n := len(dst.VMAs()); n != 0 {
		t.Errorf("dst kept %d VMAs, want 0", n)
	}
	if n := dst.PageTable().Mapped(); n != 0 {
		t.Errorf("dst kept %d PTEs, want 0", n)
	}
	if f := dst.Stats().MinorFaults; f != 0 || ch.total != 0 {
		t.Errorf("dst charged %d faults (%v), want none", f, ch.total)
	}
	if refs := src.PageTable().Lookup(addr).Frame.Refs(); refs != 1 {
		t.Errorf("source frame has %d refs, want 1", refs)
	}

	src.Write(addr+PageSize, []byte{1}, nil)
	src.Write(addr+2*PageSize, []byte{2}, nil)
	if err := src.ShareMapping(dst, addr, 3*PageSize, addr, ProtRead|ProtWrite, nil); err != nil {
		t.Fatalf("retry: %v", err)
	}
	buf := make([]byte, 5)
	if err := dst.Read(addr, buf, nil); err != nil || string(buf) != "page0" {
		t.Errorf("dst read = %q, %v; want page0", buf, err)
	}
	if f := dst.Stats().MinorFaults; f != 3 {
		t.Errorf("dst faults = %d, want 3", f)
	}
}

func TestFrameRecyclingZeroes(t *testing.T) {
	phys := NewPhysMemory(1)
	as := NewAddressSpace(phys, testCosts())
	addr, _ := as.Mmap(PageSize, ProtRead|ProtWrite, "a", false, nil)
	as.Write(addr, []byte{0xff}, nil)
	as.Munmap(addr, PageSize)
	addr2, err := as.Mmap(PageSize, ProtRead|ProtWrite, "b", false, nil)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	as.Read(addr2, buf, nil)
	if buf[0] != 0 {
		t.Error("recycled frame was not zeroed")
	}
}

func TestAttachDetach(t *testing.T) {
	as := newSpace()
	as.Attach()
	as.Attach()
	if as.Attached() != 2 {
		t.Errorf("Attached = %d, want 2", as.Attached())
	}
	as.Detach()
	as.Detach()
	defer func() {
		if recover() == nil {
			t.Error("Detach below zero did not panic")
		}
	}()
	as.Detach()
}

func TestChargerBilled(t *testing.T) {
	as := newSpace()
	ch := &countCharger{}
	addr, _ := as.Mmap(PageSize, ProtRead|ProtWrite, "t", false, nil)
	data := make([]byte, 1000)
	if err := as.Write(addr, data, ch); err != nil {
		t.Fatal(err)
	}
	// Must include at least one minor fault + copy time for 1000 bytes.
	wantMin := testCosts().MinorFault + sim.Duration(testCosts().CopyBytePS*1000)
	if ch.total < wantMin {
		t.Errorf("charged %v, want >= %v", ch.total, wantMin)
	}
}

// recCharger records every charge, in order.
type recCharger struct{ log []sim.Duration }

func (r *recCharger) Charge(d sim.Duration) { r.log = append(r.log, d) }

// TestU64MatchesByteAccess runs the same word accesses through
// ReadU64/WriteU64 and through 8-byte Read/Write on twin spaces, for an
// aligned, an unaligned and a page-crossing word: a cold read (fault and
// TLB miss), warm writes and reads, a copy-on-write break after a fork,
// and a cold write after unmapping. The two must read the same values,
// charge the same sequence and count the same Stats and TLB hits.
func TestU64MatchesByteAccess(t *testing.T) {
	viaWord := wordOps{
		read:  func(as *AddressSpace, va uint64, c Charger) (uint64, error) { return as.ReadU64(va, c) },
		write: func(as *AddressSpace, va, v uint64, c Charger) error { return as.WriteU64(va, v, c) },
	}
	viaBytes := wordOps{
		read: func(as *AddressSpace, va uint64, c Charger) (uint64, error) {
			var b [8]byte
			err := as.Read(va, b[:], c)
			return binary.LittleEndian.Uint64(b[:]), err
		},
		write: func(as *AddressSpace, va, v uint64, c Charger) error {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], v)
			return as.Write(va, b[:], c)
		},
	}
	for _, tc := range []struct {
		name string
		off  uint64
	}{
		{"aligned", 2 * 8},
		{"unaligned", 13},
		{"page-crossing", PageSize - 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, want := viaWord.run(t, tc.off), viaBytes.run(t, tc.off)
			if !slices.Equal(got.values, want.values) {
				t.Errorf("values %#x, want %#x", got.values, want.values)
			}
			if !slices.Equal(got.charges, want.charges) {
				t.Errorf("charges %v, want %v", got.charges, want.charges)
			}
			if got.stats != want.stats {
				t.Errorf("stats %+v, want %+v", got.stats, want.stats)
			}
			if got.tlb != want.tlb {
				t.Errorf("TLB hits and misses %v, want %v", got.tlb, want.tlb)
			}
		})
	}
}

// wordOps is one way to load and store a word.
type wordOps struct {
	read  func(as *AddressSpace, va uint64, c Charger) (uint64, error)
	write func(as *AddressSpace, va, v uint64, c Charger) error
}

// wordRun is what TestU64MatchesByteAccess compares.
type wordRun struct {
	values  []uint64
	charges []sim.Duration
	stats   Stats
	tlb     [2]uint64
}

// run drives a fresh space through the access sequence with the word at
// off in a two-page mapping.
func (ops wordOps) run(t *testing.T, off uint64) wordRun {
	t.Helper()
	as := newSpace()
	ch := &recCharger{}
	addr, err := as.Mmap(2*PageSize, ProtRead|ProtWrite, "word", false, nil)
	if err != nil {
		t.Fatal(err)
	}
	var r wordRun
	read := func() {
		v, err := ops.read(as, addr+off, ch)
		if err != nil {
			t.Fatal(err)
		}
		r.values = append(r.values, v)
	}
	write := func(v uint64) {
		if err := ops.write(as, addr+off, v, ch); err != nil {
			t.Fatal(err)
		}
	}
	read() // cold: faults the page in
	write(0x1122334455667788)
	read()
	write(0x0102030405060708)
	read()
	child := as.ForkCoW(ch)
	write(0xa1a2a3a4a5a6a7a8) // breaks copy-on-write
	read()
	if v, err := ops.read(child, addr+off, ch); err != nil || v != 0x0102030405060708 {
		t.Fatalf("child reads %#x, %v; want the word before the fork", v, err)
	}
	if err := as.Munmap(addr, 2*PageSize); err != nil {
		t.Fatal(err)
	}
	if addr, err = as.Mmap(2*PageSize, ProtRead|ProtWrite, "word", false, nil); err != nil {
		t.Fatal(err)
	}
	write(0xdeadbeefcafef00d) // cold again
	read()
	r.charges, r.stats = ch.log, as.Stats()
	r.tlb[0], r.tlb[1] = as.tlb.Stats()
	return r
}

// The host translation cache never stands in for the simulated TLB: once
// ForkCoW has flushed the TLB, a page whose translation the cache still
// holds misses again and pays the walk.
func TestHotTranslationKeepsTLBAccounting(t *testing.T) {
	as := newSpace()
	addr, err := as.Mmap(PageSize, ProtRead|ProtWrite, "t", true, nil)
	if err != nil {
		t.Fatal(err)
	}
	as.ReadU64(addr, nil) // miss
	as.ReadU64(addr, nil) // hit
	as.ForkCoW(nil)
	ch := &countCharger{}
	if _, err := as.ReadU64(addr, ch); err != nil {
		t.Fatal(err)
	}
	if hits, misses := as.tlb.Stats(); hits != 1 || misses != 2 {
		t.Errorf("TLB hits, misses = %d, %d; want 1, 2", hits, misses)
	}
	if want := testCosts().TLBMiss + as.copyCost(8); ch.total != want {
		t.Errorf("read after the flush charged %v, want %v", ch.total, want)
	}
}
