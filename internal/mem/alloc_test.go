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

// hostBytesPerPage runs fn once and returns the host heap bytes it
// allocated per page of pinSet.
func hostBytesPerPage(fn func()) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(pinSet/PageSize)
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
