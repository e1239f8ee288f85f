package mem

// TLB is a small fully-associative translation lookaside buffer with FIFO
// replacement, used for page-walk cost accounting. One TLB per address
// space is a simplification (real TLBs are per-core) but preserves the
// property the paper cares about: address-space sharing keeps one set of
// translations hot, while separate address spaces each warm their own.
//
// The resident pages sit in a ring in insertion order; an open-addressed
// index (linear probing, backward-shift deletion) finds a page's ring
// slot without a map, so neither a hit nor a miss allocates.
type TLB struct {
	ring    []uint64 // resident pages, oldest at head
	head, n int      // ring[head] is the oldest of n resident pages
	index   []int32  // ring slot + 1 of the page homed here; 0 = empty
	shift   uint     // home(page) takes the top bits of a multiplicative hash
	hits    uint64
	misses  uint64
}

// NewTLB creates a TLB holding up to capacity page translations.
func NewTLB(capacity int) *TLB {
	if capacity <= 0 {
		capacity = 1
	}
	bits := uint(1) // at least two index slots, at most half of them used
	for 1<<bits < 2*capacity {
		bits++
	}
	return &TLB{ring: make([]uint64, capacity), index: make([]int32, 1<<bits), shift: 64 - bits}
}

// home returns page's preferred index slot.
func (t *TLB) home(page uint64) int { return int(page * 0x9e3779b97f4a7c15 >> t.shift) }

// find returns the index slot holding page, or -1.
func (t *TLB) find(page uint64) int {
	mask := len(t.index) - 1
	for i := t.home(page); ; i = (i + 1) & mask {
		s := t.index[i]
		if s == 0 {
			return -1
		}
		if t.ring[s-1] == page {
			return i
		}
	}
}

// place indexes the page held in ring slot pos.
func (t *TLB) place(pos int) {
	mask := len(t.index) - 1
	i := t.home(t.ring[pos])
	for t.index[i] != 0 {
		i = (i + 1) & mask
	}
	t.index[i] = int32(pos + 1)
}

// unindex empties index slot i and moves later entries of its probe run
// back, so every remaining page stays reachable from its home slot.
func (t *TLB) unindex(i int) {
	mask := len(t.index) - 1
	for j := i; ; {
		t.index[i] = 0
		for {
			j = (j + 1) & mask
			s := t.index[j]
			if s == 0 {
				return
			}
			// The entry at j moves to i unless its home lies
			// cyclically in (i, j].
			h := t.home(t.ring[s-1])
			if i <= j && i < h && h <= j || i > j && (i < h || h <= j) {
				continue
			}
			t.index[i] = s
			i = j
			break
		}
	}
}

// Hit reports whether the page translation is cached, updating stats.
func (t *TLB) Hit(page uint64) bool {
	if t.find(page) >= 0 {
		t.hits++
		return true
	}
	t.misses++
	return false
}

// Insert caches a page translation, evicting the oldest entry when full.
func (t *TLB) Insert(page uint64) {
	if t.find(page) >= 0 {
		return
	}
	if t.n == len(t.ring) {
		t.unindex(t.find(t.ring[t.head]))
		t.head = (t.head + 1) % len(t.ring)
		t.n--
	}
	pos := (t.head + t.n) % len(t.ring)
	t.ring[pos] = page
	t.n++
	t.place(pos)
}

// Invalidate drops a page translation (on unmap). The younger entries
// move up one ring slot, keeping their order, and the index is rebuilt:
// O(capacity), but only unmapping pays it.
func (t *TLB) Invalidate(page uint64) {
	i := t.find(page)
	if i < 0 {
		return
	}
	c := len(t.ring)
	for k := (int(t.index[i]) - 1 - t.head + c) % c; k < t.n-1; k++ {
		t.ring[(t.head+k)%c] = t.ring[(t.head+k+1)%c]
	}
	t.n--
	clear(t.index)
	for k := 0; k < t.n; k++ {
		t.place((t.head + k) % c)
	}
}

// Flush drops all translations (on address-space switch — this is why
// process context switches cost more than thread switches).
func (t *TLB) Flush() {
	t.head, t.n = 0, 0
	clear(t.index)
}

// Stats reports cumulative hits and misses.
func (t *TLB) Stats() (hits, misses uint64) { return t.hits, t.misses }
