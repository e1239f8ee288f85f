// Package mem implements the simulated virtual-memory system: physical
// frames, four-level page tables, virtual memory areas (VMAs), demand
// paging with minor/major fault accounting, and — the property PiP is
// built on — whole-address-space sharing between tasks.
//
// The package is passive: it never advances virtual time itself. Methods
// that incur hardware cost report it through the Charger interface so the
// kernel layer can bill the executing kernel context.
package mem

import (
	"errors"
	"fmt"

	"repro/internal/sim"
)

// PageSize is the base page size (4 KiB), PageShift its log2.
const (
	PageShift = 12
	PageSize  = 1 << PageShift

	// HugePageShift/HugePageSize model 2 MiB huge pages, used by the
	// populated-mmap/huge-page discussion in the paper's §VII.
	HugePageShift = 21
	HugePageSize  = 1 << HugePageShift
)

// Prot is a page-protection bit set.
type Prot uint8

// Protection bits.
const (
	ProtRead Prot = 1 << iota
	ProtWrite
	ProtExec
)

// String implements fmt.Stringer in the familiar "rwx" form.
func (p Prot) String() string {
	b := []byte("---")
	if p&ProtRead != 0 {
		b[0] = 'r'
	}
	if p&ProtWrite != 0 {
		b[1] = 'w'
	}
	if p&ProtExec != 0 {
		b[2] = 'x'
	}
	return string(b)
}

// Errors reported by the memory system.
var (
	ErrSegfault      = errors.New("mem: segmentation fault")
	ErrProtViolation = errors.New("mem: protection violation")
	ErrNoMemory      = errors.New("mem: out of physical memory")
	ErrBadRange      = errors.New("mem: invalid address range")
	ErrOverlap       = errors.New("mem: mapping overlaps existing VMA")
)

// Charger receives virtual-time costs incurred by memory operations.
// The kernel's executing task implements it; a nil Charger discards
// costs (useful in pure-semantics tests).
type Charger interface {
	Charge(d sim.Duration)
}

// charge bills c if non-nil.
func charge(c Charger, d sim.Duration) {
	if c != nil {
		c.Charge(d)
	}
}

// PageFloor rounds addr down to a page boundary.
func PageFloor(addr uint64) uint64 { return addr &^ (PageSize - 1) }

// PageCeil rounds addr up to a page boundary.
func PageCeil(addr uint64) uint64 { return (addr + PageSize - 1) &^ (PageSize - 1) }

// Canonical address-space layout constants (x86_64-like).
const (
	// TextBase is where the first loaded program image begins.
	TextBase = 0x0000_0000_0040_0000
	// MmapBase is the top of the downward-growing mmap region.
	MmapBase = 0x0000_7f00_0000_0000
	// AddrLimit is the first non-canonical user address.
	AddrLimit = 0x0000_8000_0000_0000
)

// fmtAddr renders an address for diagnostics.
func fmtAddr(a uint64) string { return fmt.Sprintf("0x%012x", a) }
