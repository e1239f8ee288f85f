package mem

import (
	"runtime"
	"testing"
)

// Host-allocation pins for simulated memory. A frame stores only the
// written prefix of its page, so touching one byte of a page costs a
// small buffer instead of 4 KiB, and reading a never-written page costs
// nothing. The pins measure TotalAlloc deltas rather than
// testing.AllocsPerRun, whose warm-up run would hide exactly the
// first-touch allocations they are about.

const pinSet = 8 << 20 // bytes swept per pin

// hostBytes runs fn once and returns the host heap bytes it allocated.
func hostBytes(fn func()) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc - before.TotalAlloc)
}

// hostBytesPerPage runs fn once and returns the host heap bytes it
// allocated per page of pinSet.
func hostBytesPerPage(fn func()) float64 {
	return hostBytes(fn) / float64(pinSet/PageSize)
}

// TestFirstTouchHostBytesPerPage maps pinSet under each of the three
// mappings of the huge-pages ablation and writes one byte per base page,
// the ablation's sweep. Mapping, page tables, frames and frame buffers
// all count.
func TestFirstTouchHostBytesPerPage(t *testing.T) {
	const limit = 512
	for _, mode := range []struct {
		name            string
		huge, populated bool
	}{
		{"4K demand", false, false},
		{"2M huge", true, false},
		{"4K populated", false, true},
	} {
		as := newSpace()
		one := []byte{1}
		got := hostBytesPerPage(func() {
			mmap := as.Mmap
			if mode.huge {
				mmap = as.MmapHuge
			}
			addr, err := mmap(pinSet, ProtRead|ProtWrite, "pin", mode.populated, nil)
			if err != nil {
				t.Fatal(err)
			}
			for off := uint64(0); off < pinSet; off += PageSize {
				if err := as.Write(addr+off, one, nil); err != nil {
					t.Fatal(err)
				}
			}
		})
		t.Logf("%s: %.0f B per page", mode.name, got)
		if got > limit {
			t.Errorf("%s: first-touch sweep allocates %.0f B per page, want <= %d", mode.name, got, limit)
		}
	}
}

// TestReadUnwrittenHostBytesPerPage reads one byte per page of a
// populated mapping nobody wrote: the frames exist, their contents do
// not need to.
func TestReadUnwrittenHostBytesPerPage(t *testing.T) {
	const limit = 64
	as := newSpace()
	addr, err := as.Mmap(pinSet, ProtRead|ProtWrite, "pin", true, nil)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	got := hostBytesPerPage(func() {
		for off := uint64(0); off < pinSet; off += PageSize {
			if err := as.Read(addr+off, buf, nil); err != nil {
				t.Fatal(err)
			}
		}
	})
	t.Logf("read sweep: %.0f B per page", got)
	if got > limit {
		t.Errorf("read sweep allocates %.0f B per page, want <= %d", got, limit)
	}
}

// spacesPerPin is how many address spaces a footprint pin builds; it
// reports their mean.
const spacesPerPin = 32

// TestEmptySpaceHostBytes pins what an address space costs before it
// maps anything: the root page table, the simulated TLB and the host
// translation cache.
func TestEmptySpaceHostBytes(t *testing.T) {
	const limit = 9 << 10
	phys := NewPhysMemory(0)
	spaces := make([]*AddressSpace, spacesPerPin)
	got := hostBytes(func() {
		for i := range spaces {
			spaces[i] = NewAddressSpace(phys, testCosts())
		}
	}) / spacesPerPin
	t.Logf("empty space: %.0f B", got)
	if got > limit {
		t.Errorf("an empty address space allocates %.0f B, want <= %d", got, limit)
	}
}

// TestTouchedSpaceHostBytes pins a small working set: a space that maps
// 64 pages and writes one word to each, so it holds three interior
// tables below the root, 64 PTEs and 64 frames with their buffers.
func TestTouchedSpaceHostBytes(t *testing.T) {
	const limit = 34 << 10
	const pages = 64
	phys := NewPhysMemory(0)
	spaces := make([]*AddressSpace, spacesPerPin)
	got := hostBytes(func() {
		for i := range spaces {
			as := NewAddressSpace(phys, testCosts())
			addr, err := as.Mmap(pages*PageSize, ProtRead|ProtWrite, "pin", false, nil)
			if err != nil {
				t.Fatal(err)
			}
			for p := uint64(0); p < pages; p++ {
				if err := as.WriteU64(addr+p*PageSize, p, nil); err != nil {
					t.Fatal(err)
				}
			}
			spaces[i] = as
		}
	}) / spacesPerPin
	t.Logf("64 pages touched: %.0f B", got)
	if got > limit {
		t.Errorf("a space with %d pages touched allocates %.0f B, want <= %d", pages, got, limit)
	}
}

// TestWordAccessZeroAllocs pins the futex and lock word path: a read
// and a write of a mapped word allocate nothing, cached or not.
func TestWordAccessZeroAllocs(t *testing.T) {
	as := newSpace()
	addr, err := as.Mmap(2*PageSize, ProtRead|ProtWrite, "word", true, nil)
	if err != nil {
		t.Fatal(err)
	}
	ch := &countCharger{}
	for _, va := range []uint64{addr + 8, addr + 13, addr + PageSize - 4} {
		allocs := testing.AllocsPerRun(1000, func() {
			v, err := as.ReadU64(va, ch)
			if err != nil {
				t.Fatal(err)
			}
			if err := as.WriteU64(va, v+1, ch); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("ReadU64+WriteU64 at %#x: %.1f allocs, want 0", va-addr, allocs)
		}
	}
}
