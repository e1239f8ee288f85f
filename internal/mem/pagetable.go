package mem

// The page table is the x86_64-style four-level radix tree: 9 bits per
// level (PGD, PUD, PMD, PT) over a 48-bit virtual address with 4 KiB
// leaves. The paper's address-space sharing means *one* page table is
// shared by all PiP tasks; this is modeled by all tasks holding the same
// *AddressSpace, hence the same *PageTable.

const (
	ptLevels     = 4
	ptBitsPer    = 9
	ptEntriesPer = 1 << ptBitsPer // 512
)

// PTE is a leaf page-table entry.
type PTE struct {
	Frame *Frame
	Prot  Prot
	// COW marks a copy-on-write page: shared with another space until
	// the next write, which copies the frame (see AddressSpace.ForkCoW).
	COW bool
	// Accessed/Dirty model the hardware A/D bits.
	Accessed bool
	Dirty    bool
}

// table is one level of the tree: 512 slots of 8 bytes (4 KiB) plus a
// count of the live ones. Each level is its own instantiation, so a
// level holds exactly the pointers it needs and a walk loads one slot
// per level.
type table[T any] struct {
	slots [ptEntriesPer]*T
	live  int
}

// The four levels, root first.
type (
	pgdTable  = table[pudTable]
	pudTable  = table[pmdTable]
	pmdTable  = table[leafTable]
	leafTable = table[PTE]
)

// child returns the table in slot i of t, creating it if absent.
func child[T any](t *table[T], i int) *T {
	c := t.slots[i]
	if c == nil {
		c = new(T)
		t.slots[i] = c
		t.live++
	}
	return c
}

// drop empties slot i of t and reports whether t is now empty.
func (t *table[T]) drop(i int) bool {
	t.slots[i] = nil
	t.live--
	return t.live == 0
}

// PageTable is a four-level translation tree.
type PageTable struct {
	root pgdTable

	// mapped counts live leaf PTEs.
	mapped uint64
}

// NewPageTable creates an empty table.
func NewPageTable() *PageTable { return &PageTable{} }

// slot returns va's index into the table at level (0 = PGD, 3 = PT).
func slot(va uint64, level int) int {
	return int(va>>(PageShift+(ptLevels-1-level)*ptBitsPer)) & (ptEntriesPer - 1)
}

// Lookup returns the PTE mapping va's page, or nil.
func (pt *PageTable) Lookup(va uint64) *PTE {
	pud := pt.root.slots[slot(va, 0)]
	if pud == nil {
		return nil
	}
	pmd := pud.slots[slot(va, 1)]
	if pmd == nil {
		return nil
	}
	leaf := pmd.slots[slot(va, 2)]
	if leaf == nil {
		return nil
	}
	return leaf.slots[slot(va, 3)]
}

// Map installs a PTE for va's page, walking and creating interior tables.
// It panics if the page is already mapped: callers must Unmap first (the
// simulated kernel never silently remaps).
func (pt *PageTable) Map(va uint64, pte *PTE) {
	leaf := child(child(child(&pt.root, slot(va, 0)), slot(va, 1)), slot(va, 2))
	i := slot(va, 3)
	if leaf.slots[i] != nil {
		panic("mem: double map of " + fmtAddr(va))
	}
	leaf.slots[i] = pte
	leaf.live++
	pt.mapped++
}

// Unmap removes the PTE for va's page and returns it, or nil if the page
// was not mapped. Empty interior tables are pruned.
func (pt *PageTable) Unmap(va uint64) *PTE {
	i0, i1, i2, i3 := slot(va, 0), slot(va, 1), slot(va, 2), slot(va, 3)
	pud := pt.root.slots[i0]
	if pud == nil {
		return nil
	}
	pmd := pud.slots[i1]
	if pmd == nil {
		return nil
	}
	leaf := pmd.slots[i2]
	if leaf == nil {
		return nil
	}
	pte := leaf.slots[i3]
	if pte == nil {
		return nil
	}
	pt.mapped--
	// Prune empty tables bottom-up (never the root).
	if leaf.drop(i3) && pmd.drop(i2) && pud.drop(i1) {
		pt.root.drop(i0)
	}
	return pte
}

// Mapped reports the number of mapped pages.
func (pt *PageTable) Mapped() uint64 { return pt.mapped }

// Range calls fn for every mapped page in ascending address order.
// Returning false from fn stops the walk.
func (pt *PageTable) Range(fn func(va uint64, pte *PTE) bool) {
	const s0, s1, s2 = PageShift + 3*ptBitsPer, PageShift + 2*ptBitsPer, PageShift + ptBitsPer
	for i0, pud := range &pt.root.slots {
		if pud == nil {
			continue
		}
		for i1, pmd := range &pud.slots {
			if pmd == nil {
				continue
			}
			for i2, leaf := range &pmd.slots {
				if leaf == nil {
					continue
				}
				base := uint64(i0)<<s0 | uint64(i1)<<s1 | uint64(i2)<<s2
				for i3, pte := range &leaf.slots {
					if pte != nil && !fn(base|uint64(i3)<<PageShift, pte) {
						return
					}
				}
			}
		}
	}
}
