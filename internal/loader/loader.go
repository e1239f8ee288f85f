// Package loader models PIE (position-independent executable) program
// images and glibc's dlmopen(): loading a program into an address space
// under a fresh link namespace, so that every load gets its own instance
// of every static variable ("variable privatization" in PiP terms) while
// all instances remain addressable by everyone sharing the address space
// ("not shared but shareable").
package loader

import (
	"errors"
	"fmt"

	"repro/internal/mem"
	"repro/internal/sim"
)

// Errors reported by the loader.
var (
	ErrNotPIE       = errors.New("loader: image is not position independent")
	ErrDupSymbol    = errors.New("loader: duplicate symbol in image")
	ErrNoSuchSymbol = errors.New("loader: no such symbol")
)

// Symbol declares one static variable in a program image.
type Symbol struct {
	Name string
	Size uint64
	Init []byte // initial value; zero-filled when shorter than Size

	// TLS marks a thread_local variable: it lives in the per-task TLS
	// block (located via the TLS register) rather than the data segment.
	TLS bool
}

// MainFunc is a program's entry point. The runtime passes an
// environment handle (the PiP/ULP layer defines its concrete type) and
// receives the exit status.
type MainFunc func(env interface{}) int

// Image is a "compiled" program: metadata the loader needs plus the entry
// point. PIE is required by PiP (only PIE programs can be loaded at an
// arbitrary base address).
type Image struct {
	Name     string
	PIE      bool
	TextSize uint64 // size of the executable segment
	Symbols  []Symbol
	Main     MainFunc

	// Deps are required shared objects (DT_NEEDED): dlmopen loads each
	// of them *into the same new namespace* alongside the program, so
	// every namespace gets its own copies of the libraries' static and
	// TLS variables (this is how PiP privatizes libc's errno). Shared
	// objects need no Main and must themselves be position independent.
	Deps []*Image
}

// Validate checks image invariants, including those of its dependency
// closure.
func (img *Image) Validate() error {
	if !img.PIE {
		return fmt.Errorf("%w: %s", ErrNotPIE, img.Name)
	}
	seen := make(map[string]bool, len(img.Symbols))
	for _, s := range img.Symbols {
		if s.Size == 0 {
			return fmt.Errorf("loader: symbol %s.%s has zero size", img.Name, s.Name)
		}
		if uint64(len(s.Init)) > s.Size {
			return fmt.Errorf("loader: symbol %s.%s init larger than size", img.Name, s.Name)
		}
		if seen[s.Name] {
			return fmt.Errorf("%w: %s.%s", ErrDupSymbol, img.Name, s.Name)
		}
		seen[s.Name] = true
	}
	for _, dep := range img.Deps {
		if err := dep.Validate(); err != nil {
			return fmt.Errorf("loader: dep of %s: %w", img.Name, err)
		}
	}
	return nil
}

// TLSLayout describes the thread-local storage block of one linked
// program: every task running that program gets its own copy, found
// through the task's TLS register.
type TLSLayout struct {
	Size    uint64
	Offsets map[string]uint64 // symbol -> offset within the block
	Init    []byte            // initialization image for new blocks
}

// Linked is the result of loading an image under one namespace: concrete
// addresses for text, data and every non-TLS symbol, plus the TLS layout.
type Linked struct {
	Image *Image
	NSID  int    // dlmopen namespace id (LM_ID_NEWLM result)
	Base  uint64 // load base of the text segment

	Text *mem.VMA
	Data *mem.VMA

	// DepLinks are this namespace's own instances of the image's shared
	// objects, in dependency order.
	DepLinks []*Linked

	symAddr map[string]uint64
	tls     TLSLayout
}

// SymbolAddr returns the virtual address of a non-TLS symbol in this
// namespace, searching the program first and then its shared objects in
// dependency order (ELF namespace-scoped symbol resolution).
func (l *Linked) SymbolAddr(name string) (uint64, error) {
	if a, ok := l.symAddr[name]; ok {
		return a, nil
	}
	for _, dep := range l.DepLinks {
		if a, err := dep.SymbolAddr(name); err == nil {
			return a, nil
		}
	}
	return 0, fmt.Errorf("%w: %s in ns %d of %s", ErrNoSuchSymbol, name, l.NSID, l.Image.Name)
}

// TLS returns the program's thread-local layout.
func (l *Linked) TLS() TLSLayout { return l.tls }

// Costs are the loader's timing parameters.
type Costs struct {
	DlmopenBase   sim.Duration // namespace setup
	DlmopenPerSym sim.Duration // per-symbol relocation
}

// Loader places program images into one address space, one namespace per
// Dlmopen call, mirroring glibc's dlmopen(LM_ID_NEWLM, ...).
type Loader struct {
	as       *mem.AddressSpace
	costs    Costs
	nextBase uint64
	nextNS   int
	loaded   []*Linked
}

// New creates a loader over the given address space.
func New(as *mem.AddressSpace, costs Costs) *Loader {
	return &Loader{as: as, costs: costs, nextBase: mem.TextBase, nextNS: 0}
}

// Loaded returns every linked program in load order.
func (ld *Loader) Loaded() []*Linked {
	out := make([]*Linked, len(ld.loaded))
	copy(out, ld.loaded)
	return out
}

// Dlmopen loads img — and its whole shared-object dependency closure —
// into a fresh link namespace and returns its linked form. Each call
// privatizes all static variables of the program *and its libraries*:
// the same symbol name resolves to a different address in every
// namespace.
//
// A call that fails leaves no trace: it unmaps every segment it mapped,
// for the program and each dependency, and the next load reuses the
// same base.
func (ld *Loader) Dlmopen(img *Image, c Charger) (*Linked, error) {
	if err := img.Validate(); err != nil {
		return nil, err
	}
	base, n := ld.nextBase, len(ld.loaded)
	l, err := ld.loadInNamespace(img, ld.nextNS, c)
	if err != nil {
		for _, ol := range ld.loaded[n:] {
			for _, v := range []*mem.VMA{ol.Text, ol.Data} {
				if v != nil {
					_ = ld.as.Munmap(v.Start, v.Len()) // v is exactly one VMA: cannot fail
				}
			}
		}
		clear(ld.loaded[n:])
		ld.loaded = ld.loaded[:n]
		ld.nextBase = base
		return nil, err
	}
	ld.nextNS++
	return l, nil
}

// loadInNamespace places one image (then its deps) at the next base, all
// under namespace ns. Each object joins ld.loaded as soon as its text is
// mapped, so that Dlmopen can unwind a failed load from there.
func (ld *Loader) loadInNamespace(img *Image, ns int, c Charger) (*Linked, error) {
	charge(c, ld.costs.DlmopenBase)

	l := &Linked{
		Image:   img,
		NSID:    ns,
		Base:    ld.nextBase,
		symAddr: make(map[string]uint64),
		tls:     TLSLayout{Offsets: make(map[string]uint64)},
	}

	// Text segment.
	textSize := mem.PageCeil(maxU64(img.TextSize, mem.PageSize))
	text, err := ld.as.MapRegion(l.Base, textSize, mem.ProtRead|mem.ProtExec,
		mem.VMAText, fmt.Sprintf("%s.text@ns%d", img.Name, l.NSID), false, c)
	if err != nil {
		return nil, err
	}
	l.Text = text
	ld.loaded = append(ld.loaded, l)

	// Data segment: lay out non-TLS symbols sequentially, 8-byte aligned.
	var dataSize uint64
	type placed struct {
		sym Symbol
		off uint64
	}
	var dataSyms []placed
	for _, s := range img.Symbols {
		charge(c, ld.costs.DlmopenPerSym)
		if s.TLS {
			off := align8(l.tls.Size)
			l.tls.Offsets[s.Name] = off
			l.tls.Size = off + s.Size
			continue
		}
		off := align8(dataSize)
		dataSyms = append(dataSyms, placed{s, off})
		dataSize = off + s.Size
	}
	dataStart := l.Base + textSize
	data, err := ld.as.MapRegion(dataStart, mem.PageCeil(maxU64(dataSize, mem.PageSize)),
		mem.ProtRead|mem.ProtWrite, mem.VMAData,
		fmt.Sprintf("%s.data@ns%d", img.Name, l.NSID), false, c)
	if err != nil {
		return nil, err
	}
	l.Data = data

	// Initialize data symbols.
	for _, p := range dataSyms {
		addr := dataStart + p.off
		l.symAddr[p.sym.Name] = addr
		buf := make([]byte, p.sym.Size)
		copy(buf, p.sym.Init)
		if err := ld.as.Write(addr, buf, c); err != nil {
			return nil, err
		}
	}

	// Build the TLS initialization image.
	l.tls.Init = make([]byte, l.tls.Size)
	for _, s := range img.Symbols {
		if !s.TLS {
			continue
		}
		copy(l.tls.Init[l.tls.Offsets[s.Name]:l.tls.Offsets[s.Name]+s.Size], s.Init)
	}

	ld.nextBase = data.End + mem.PageSize // guard page between objects

	// Load the dependency closure into the same namespace and fold each
	// object's TLS into the program's static TLS block (the ELF static
	// TLS model: one block per thread covers every loaded module, which
	// is how libc's errno ends up in the program's TLS block).
	for _, dep := range img.Deps {
		dl, err := ld.loadInNamespace(dep, ns, c)
		if err != nil {
			return nil, err
		}
		l.DepLinks = append(l.DepLinks, dl)
		base := align8(l.tls.Size)
		for name, off := range dl.tls.Offsets {
			if _, exists := l.tls.Offsets[name]; !exists {
				l.tls.Offsets[name] = base + off
			}
		}
		l.tls.Size = base + dl.tls.Size
		grown := make([]byte, l.tls.Size)
		copy(grown, l.tls.Init)
		copy(grown[base:], dl.tls.Init)
		l.tls.Init = grown
	}
	return l, nil
}

// AllocTLSBlock carves a fresh, initialized TLS block for one task out of
// the shared address space and returns its base address (the value the
// task's TLS register will hold).
func (ld *Loader) AllocTLSBlock(l *Linked, c Charger) (uint64, error) {
	size := maxU64(l.tls.Size, 8)
	addr, err := ld.as.Mmap(size, mem.ProtRead|mem.ProtWrite,
		fmt.Sprintf("%s.tls@ns%d", l.Image.Name, l.NSID), true, c)
	if err != nil {
		return 0, err
	}
	if len(l.tls.Init) > 0 {
		if err := ld.as.Write(addr, l.tls.Init, c); err != nil {
			return 0, err
		}
	}
	return addr, nil
}

// Charger mirrors mem.Charger (re-declared to keep this package's API
// self-contained).
type Charger = mem.Charger

func charge(c Charger, d sim.Duration) {
	if c != nil {
		c.Charge(d)
	}
}

func align8(v uint64) uint64 { return (v + 7) &^ 7 }

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
