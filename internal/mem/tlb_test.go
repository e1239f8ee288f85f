package mem

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestTLBHitAfterInsert(t *testing.T) {
	tlb := NewTLB(4)
	if tlb.Hit(0x1000) {
		t.Error("hit in empty TLB")
	}
	tlb.Insert(0x1000)
	if !tlb.Hit(0x1000) {
		t.Error("miss after insert")
	}
	hits, misses := tlb.Stats()
	if hits != 1 || misses != 1 {
		t.Errorf("stats = (%d,%d), want (1,1)", hits, misses)
	}
}

func TestTLBFIFOEviction(t *testing.T) {
	tlb := NewTLB(2)
	tlb.Insert(0x1000)
	tlb.Insert(0x2000)
	tlb.Insert(0x3000) // evicts 0x1000
	if tlb.Hit(0x1000) {
		t.Error("oldest entry not evicted")
	}
	if !tlb.Hit(0x2000) || !tlb.Hit(0x3000) {
		t.Error("younger entries evicted")
	}
}

func TestTLBInvalidateAndFlush(t *testing.T) {
	tlb := NewTLB(4)
	tlb.Insert(0x1000)
	tlb.Insert(0x2000)
	tlb.Invalidate(0x1000)
	if tlb.Hit(0x1000) {
		t.Error("hit after invalidate")
	}
	tlb.Flush()
	if tlb.Hit(0x2000) {
		t.Error("hit after flush")
	}
}

func TestTLBNeverExceedsCapacity(t *testing.T) {
	f := func(pages []uint16, capRaw uint8) bool {
		capacity := int(capRaw%16) + 1
		tlb := NewTLB(capacity)
		for _, p := range pages {
			tlb.Insert(uint64(p) << PageShift)
			if tlb.n > capacity || tlb.indexed() > capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestTLBDuplicateInsertNoGrowth(t *testing.T) {
	tlb := NewTLB(4)
	tlb.Insert(0x1000)
	tlb.Insert(0x1000)
	if tlb.n != 1 || tlb.indexed() != 1 {
		t.Errorf("%d pages resident, %d indexed after duplicate insert, want 1", tlb.n, tlb.indexed())
	}
}

// indexed counts the occupied index slots.
func (t *TLB) indexed() int {
	n := 0
	for _, s := range t.index {
		if s != 0 {
			n++
		}
	}
	return n
}

// resident returns the cached pages, oldest first.
func (t *TLB) resident() []uint64 {
	out := make([]uint64, t.n)
	for k := range out {
		out[k] = t.ring[(t.head+k)%len(t.ring)]
	}
	return out
}

// refTLB is the map-and-slice FIFO TLB the array version replaced, kept
// as FuzzTLB's reference model.
type refTLB struct {
	capacity     int
	fifo         []uint64
	present      map[uint64]int
	hits, misses uint64
}

func newRefTLB(capacity int) *refTLB {
	return &refTLB{capacity: capacity, present: make(map[uint64]int, capacity)}
}

func (t *refTLB) Hit(page uint64) bool {
	if _, ok := t.present[page]; ok {
		t.hits++
		return true
	}
	t.misses++
	return false
}

func (t *refTLB) Insert(page uint64) {
	if _, ok := t.present[page]; ok {
		return
	}
	if len(t.fifo) >= t.capacity {
		old := t.fifo[0]
		t.fifo = t.fifo[1:]
		delete(t.present, old)
	}
	t.present[page] = len(t.fifo)
	t.fifo = append(t.fifo, page)
}

func (t *refTLB) Invalidate(page uint64) {
	if _, ok := t.present[page]; !ok {
		return
	}
	delete(t.present, page)
	for i, p := range t.fifo {
		if p == page {
			t.fifo = append(t.fifo[:i], t.fifo[i+1:]...)
			break
		}
	}
}

func (t *refTLB) Flush() {
	t.fifo = t.fifo[:0]
	t.present = make(map[uint64]int, t.capacity)
}

// FuzzTLB runs Hit, Insert, Invalidate and Flush sequences against a TLB
// of capacity 1–70 and the reference model side by side. After every
// operation the two must agree on the hit, the hit and miss counts and
// the resident pages in FIFO order, and every resident page must be
// reachable through the index.
//
// The first byte sets the capacity (1 + b%70); then each operation is an
// opcode byte (mod 4: Hit, Insert, Invalidate, Flush) and, except for
// Flush, a page byte p: page p (p < 200) or huge page p-200.
func FuzzTLB(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzInput(data)
		capacity := 1 + int(in.next())%70
		tlb, ref := NewTLB(capacity), newRefTLB(capacity)
		for step := 0; len(in) > 0 && step < 1024; step++ {
			op := in.next() % 4
			var page uint64
			if op != 3 {
				if p := uint64(in.next()); p < 200 {
					page = p << PageShift
				} else {
					page = (p - 200) << HugePageShift
				}
			}
			switch op {
			case 0:
				if got, want := tlb.Hit(page), ref.Hit(page); got != want {
					t.Fatalf("step %d: Hit(%#x) = %v, want %v", step, page, got, want)
				}
			case 1:
				tlb.Insert(page)
				ref.Insert(page)
			case 2:
				tlb.Invalidate(page)
				ref.Invalidate(page)
			case 3:
				tlb.Flush()
				ref.Flush()
			}
			if h, m := tlb.Stats(); h != ref.hits || m != ref.misses {
				t.Fatalf("step %d: stats (%d, %d), want (%d, %d)", step, h, m, ref.hits, ref.misses)
			}
			if got := tlb.resident(); !slices.Equal(got, ref.fifo) {
				t.Fatalf("step %d: resident %#x, want %#x", step, got, ref.fifo)
			}
			if n := tlb.indexed(); n != tlb.n {
				t.Fatalf("step %d: %d index slots for %d pages", step, n, tlb.n)
			}
			for _, p := range ref.fifo {
				if tlb.find(p) < 0 {
					t.Fatalf("step %d: resident page %#x unreachable through the index", step, p)
				}
			}
		}
	})
}

func TestVMAKindAndProtStrings(t *testing.T) {
	if (ProtRead | ProtWrite).String() != "rw-" {
		t.Errorf("Prot string = %q", (ProtRead | ProtWrite).String())
	}
	if VMAText.String() != "text" || VMAFile.String() != "file" {
		t.Error("VMAKind strings wrong")
	}
	v := &VMA{Start: 0x1000, End: 0x3000}
	if v.Len() != 0x2000 || !v.Contains(0x1000) || v.Contains(0x3000) {
		t.Error("VMA geometry wrong")
	}
}

func TestGapBelowFindsSpace(t *testing.T) {
	var s vmaSet
	s.insert(&VMA{Start: MmapBase - 2*PageSize, End: MmapBase})
	got := s.gapBelow(MmapBase, PageSize)
	if got == 0 || got+PageSize > MmapBase-2*PageSize {
		t.Errorf("gapBelow returned %x inside occupied range", got)
	}
}
