package mem

import "encoding/binary"

// Frame is one physical page frame. It stores only the written prefix
// of its page, so a large mapping touched one byte per page stays cheap
// to simulate:
//
//   - len(data) ≤ PageSize, and every byte at or past len(data) reads
//     as zero (physical pages are handed out zeroed, as on Linux);
//   - data[len:cap] is always zero. The buffer never shrinks and a
//     recycled frame starts again from data == nil, so a write that
//     grows the prefix in place exposes only zeros. Reusing a recycled
//     frame's buffer would break this and leak the previous owner's
//     bytes.
type Frame struct {
	ID   uint64
	refs int
	data []byte
}

// minFrameBuf is the smallest buffer a frame allocates.
const minFrameBuf = 64

// writeAt copies as much of p as fits in the page at off and returns
// the number of bytes copied. A write past the prefix grows it in place
// when the buffer has room, and otherwise reallocates: at least
// minFrameBuf bytes, doubling, never more than one page.
func (f *Frame) writeAt(off int, p []byte) int {
	if n := PageSize - off; len(p) > n {
		p = p[:n]
	}
	if end := off + len(p); end > len(f.data) {
		if end > cap(f.data) {
			c := max(cap(f.data), minFrameBuf)
			for c < end {
				c *= 2
			}
			buf := make([]byte, len(f.data), min(c, PageSize))
			copy(buf, f.data)
			f.data = buf
		}
		f.data = f.data[:end]
	}
	return copy(f.data[off:], p)
}

// readAt copies the page's bytes at off into p, up to the end of the
// page, and returns the number of bytes copied. Bytes past the written
// prefix read as zero; a never-written frame allocates nothing.
func (f *Frame) readAt(off int, p []byte) int {
	if n := PageSize - off; len(p) > n {
		p = p[:n]
	}
	n := 0
	if off < len(f.data) {
		n = copy(p, f.data[off:])
	}
	clear(p[n:])
	return len(p)
}

// loadU64 returns the little-endian word at off, which must leave room
// for all eight bytes in the page.
func (f *Frame) loadU64(off int) uint64 {
	if off+8 <= len(f.data) {
		return binary.LittleEndian.Uint64(f.data[off:])
	}
	var b [8]byte
	f.readAt(off, b[:])
	return binary.LittleEndian.Uint64(b[:])
}

// storeU64 writes v little-endian at off, which must leave room for all
// eight bytes in the page. A store past the prefix grows it as writeAt
// does.
func (f *Frame) storeU64(off int, v uint64) {
	if off+8 <= len(f.data) {
		binary.LittleEndian.PutUint64(f.data[off:], v)
		return
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	f.writeAt(off, b[:])
}

// Refs reports the number of page-table mappings referencing this frame.
func (f *Frame) Refs() int { return f.refs }

// PhysMemory is the physical frame allocator. A single PhysMemory is
// shared by every address space on a simulated machine.
type PhysMemory struct {
	totalFrames uint64
	nextID      uint64
	free        []*Frame
	allocated   uint64
}

// NewPhysMemory creates an allocator with the given capacity in frames.
// capacity == 0 means effectively unlimited (2^40 frames).
func NewPhysMemory(capacityFrames uint64) *PhysMemory {
	if capacityFrames == 0 {
		capacityFrames = 1 << 40
	}
	return &PhysMemory{totalFrames: capacityFrames}
}

// Alloc returns a fresh zeroed frame, or ErrNoMemory when capacity is
// exhausted.
func (pm *PhysMemory) Alloc() (*Frame, error) {
	if n := len(pm.free); n > 0 {
		f := pm.free[n-1]
		pm.free[n-1] = nil
		pm.free = pm.free[:n-1]
		f.data = nil // zeroed: see Frame for why the buffer is not reused
		pm.allocated++
		return f, nil
	}
	if pm.allocated >= pm.totalFrames {
		return nil, ErrNoMemory
	}
	pm.nextID++
	pm.allocated++
	return &Frame{ID: pm.nextID}, nil
}

// Free returns a frame to the allocator. The caller must hold the only
// remaining reference.
func (pm *PhysMemory) Free(f *Frame) {
	if f.refs != 0 {
		panic("mem: freeing frame with live references")
	}
	pm.allocated--
	pm.free = append(pm.free, f)
}

// Get increments a frame's reference count (a new PTE points at it).
func (pm *PhysMemory) Get(f *Frame) { f.refs++ }

// Put decrements a frame's reference count, freeing it at zero.
func (pm *PhysMemory) Put(f *Frame) {
	if f.refs <= 0 {
		panic("mem: Put on frame with no references")
	}
	f.refs--
	if f.refs == 0 {
		pm.Free(f)
	}
}

// Allocated reports the number of frames currently in use.
func (pm *PhysMemory) Allocated() uint64 { return pm.allocated }
