package mem

import "fmt"

// VMAKind labels what a virtual memory area holds.
type VMAKind int

// VMA kinds.
const (
	VMAText VMAKind = iota
	VMAData
	VMAStack
	VMAHeap
	VMAAnon // anonymous mmap
	VMAFile // file-backed mmap
)

// String implements fmt.Stringer.
func (k VMAKind) String() string {
	switch k {
	case VMAText:
		return "text"
	case VMAData:
		return "data"
	case VMAStack:
		return "stack"
	case VMAHeap:
		return "heap"
	case VMAAnon:
		return "anon"
	case VMAFile:
		return "file"
	}
	return "?"
}

// VMA is one contiguous virtual memory area. Start/End are page aligned;
// End is exclusive.
type VMA struct {
	Start, End uint64
	Prot       Prot
	Kind       VMAKind
	Label      string // diagnostic: program/namespace that owns it

	// Populated means the area was pre-faulted at map time
	// (MAP_POPULATE); accesses never minor-fault. Central to the §VII
	// page-fault discussion.
	Populated bool

	// Huge backs the area with 2 MiB pages (MAP_HUGETLB): one fault
	// and one TLB entry cover 512 base pages — the other half of the
	// §VII discussion ("large (huge) memory pages and/or populated
	// mmap are prevalent ... they can reduce the number of page faults
	// as well as the number of TLB misses").
	Huge bool
}

// FaultGranularity is the number of bytes one fault populates.
func (v *VMA) FaultGranularity() uint64 {
	if v.Huge {
		return HugePageSize
	}
	return PageSize
}

// Len reports the area's size in bytes.
func (v *VMA) Len() uint64 { return v.End - v.Start }

// Contains reports whether addr falls inside the area.
func (v *VMA) Contains(addr uint64) bool { return addr >= v.Start && addr < v.End }

// String implements fmt.Stringer.
func (v *VMA) String() string {
	return fmt.Sprintf("%s-%s %s %s %s", fmtAddr(v.Start), fmtAddr(v.End), v.Prot, v.Kind, v.Label)
}

// vmaSet is an ordered, non-overlapping set of VMAs.
type vmaSet struct {
	areas []*VMA // sorted by Start
}

// above returns the index of the first area ending above addr, or
// len(s.areas): a plain binary search, since areas are sorted and
// disjoint.
func (s *vmaSet) above(addr uint64) int {
	lo, hi := 0, len(s.areas)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if s.areas[m].End > addr {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo
}

// find returns the VMA containing addr, or nil.
func (s *vmaSet) find(addr uint64) *VMA {
	if i := s.above(addr); i < len(s.areas) && s.areas[i].Start <= addr {
		return s.areas[i]
	}
	return nil
}

// overlaps reports whether [start,end) intersects any existing area.
func (s *vmaSet) overlaps(start, end uint64) bool {
	i := s.above(start)
	return i < len(s.areas) && s.areas[i].Start < end
}

// insert adds a VMA, keeping order. Caller must have checked overlap,
// so the areas ending above v.Start are exactly those after it.
func (s *vmaSet) insert(v *VMA) {
	i := s.above(v.Start)
	s.areas = append(s.areas, nil)
	copy(s.areas[i+1:], s.areas[i:])
	s.areas[i] = v
}

// remove deletes the exact VMA v.
func (s *vmaSet) remove(v *VMA) bool {
	for i, a := range s.areas {
		if a == v {
			s.areas = append(s.areas[:i], s.areas[i+1:]...)
			return true
		}
	}
	return false
}

// gapAbove finds the highest page-aligned start < limit such that
// [start, start+size) is free, searching downward (mmap-style).
// Returns 0 if no gap exists.
func (s *vmaSet) gapBelow(limit, size uint64) uint64 {
	end := limit
	// Walk areas from the top down.
	for i := len(s.areas) - 1; i >= 0; i-- {
		a := s.areas[i]
		if a.End <= end {
			if end-a.End >= size && end >= size {
				return end - size
			}
			end = a.Start
		} else if a.Start < end {
			end = a.Start
		}
	}
	if end >= size {
		return end - size
	}
	return 0
}
