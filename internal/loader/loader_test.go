package loader

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/sim"
)

func testImage(name string) *Image {
	return &Image{
		Name:     name,
		PIE:      true,
		TextSize: 3 * mem.PageSize,
		Symbols: []Symbol{
			{Name: "counter", Size: 8, Init: []byte{42}},
			{Name: "buf", Size: 256},
			{Name: "errno", Size: 4, TLS: true},
			{Name: "tls_state", Size: 16, Init: []byte{7}, TLS: true},
		},
		Main: func(env interface{}) int { return 0 },
	}
}

func newLoader() (*Loader, *mem.AddressSpace) {
	as := mem.NewAddressSpace(mem.NewPhysMemory(0), mem.Costs{})
	return New(as, Costs{DlmopenBase: 180 * sim.Microsecond, DlmopenPerSym: 90 * sim.Nanosecond}), as
}

func TestDlmopenResolvesSymbols(t *testing.T) {
	ld, as := newLoader()
	l, err := ld.Dlmopen(testImage("prog"), nil)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := l.SymbolAddr("counter")
	if err != nil {
		t.Fatal(err)
	}
	v, err := as.ReadU64(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v != 42 {
		t.Errorf("counter init = %d, want 42", v)
	}
	if _, err := l.SymbolAddr("nope"); !errors.Is(err, ErrNoSuchSymbol) {
		t.Errorf("missing symbol err = %v", err)
	}
}

// TestPrivatization is the core PiP property: loading the same program
// twice gives two namespaces whose same-named variables live at distinct
// addresses in the one shared address space, with independent values —
// yet each remains readable by anyone holding its address ("shareable").
func TestPrivatization(t *testing.T) {
	ld, as := newLoader()
	img := testImage("prog")
	l1, err := ld.Dlmopen(img, nil)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := ld.Dlmopen(img, nil)
	if err != nil {
		t.Fatal(err)
	}
	if l1.NSID == l2.NSID {
		t.Fatal("two dlmopens share a namespace id")
	}
	a1, _ := l1.SymbolAddr("counter")
	a2, _ := l2.SymbolAddr("counter")
	if a1 == a2 {
		t.Fatal("same symbol resolved to same address across namespaces")
	}
	// Independent values.
	if err := as.WriteU64(a1, 111, nil); err != nil {
		t.Fatal(err)
	}
	if err := as.WriteU64(a2, 222, nil); err != nil {
		t.Fatal(err)
	}
	v1, _ := as.ReadU64(a1, nil)
	v2, _ := as.ReadU64(a2, nil)
	if v1 != 111 || v2 != 222 {
		t.Errorf("privatized values = %d,%d, want 111,222", v1, v2)
	}
	// Shareable: "task 2" reads task 1's instance directly by address.
	cross, err := as.ReadU64(a1, nil)
	if err != nil || cross != 111 {
		t.Errorf("cross-namespace read = %d,%v, want 111", cross, err)
	}
}

func TestNonPIERejected(t *testing.T) {
	ld, _ := newLoader()
	img := testImage("static")
	img.PIE = false
	if _, err := ld.Dlmopen(img, nil); !errors.Is(err, ErrNotPIE) {
		t.Errorf("err = %v, want ErrNotPIE", err)
	}
}

func TestImageValidation(t *testing.T) {
	cases := []struct {
		mutate func(*Image)
		name   string
	}{
		{func(i *Image) { i.Symbols[0].Size = 0 }, "zero size"},
		{func(i *Image) { i.Symbols[0].Init = make([]byte, 99) }, "init too large"},
		{func(i *Image) { i.Symbols[1].Name = i.Symbols[0].Name }, "duplicate"},
	}
	for _, c := range cases {
		img := testImage("bad")
		c.mutate(img)
		if err := img.Validate(); err == nil {
			t.Errorf("%s: Validate passed", c.name)
		}
	}
}

func TestTLSLayoutAndBlocks(t *testing.T) {
	ld, as := newLoader()
	l, err := ld.Dlmopen(testImage("prog"), nil)
	if err != nil {
		t.Fatal(err)
	}
	tls := l.TLS()
	if len(tls.Offsets) != 2 {
		t.Fatalf("TLS symbols = %d, want 2", len(tls.Offsets))
	}
	if tls.Size < 20 {
		t.Errorf("TLS size = %d, want >= 20", tls.Size)
	}
	// Two tasks get independent TLS blocks, both initialized.
	b1, err := ld.AllocTLSBlock(l, nil)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := ld.AllocTLSBlock(l, nil)
	if err != nil {
		t.Fatal(err)
	}
	if b1 == b2 {
		t.Fatal("two TLS blocks at the same address")
	}
	off := tls.Offsets["tls_state"]
	buf := make([]byte, 1)
	as.Read(b1+off, buf, nil)
	if buf[0] != 7 {
		t.Errorf("TLS block 1 init = %d, want 7", buf[0])
	}
	// Mutating one block leaves the other intact (e.g. errno isolation).
	eoff := tls.Offsets["errno"]
	as.Write(b1+eoff, []byte{13}, nil)
	as.Read(b2+eoff, buf, nil)
	if buf[0] != 0 {
		t.Errorf("TLS privatization broken: block2 errno = %d", buf[0])
	}
}

func TestLoadBasesDoNotOverlap(t *testing.T) {
	ld, _ := newLoader()
	img := testImage("prog")
	var prev *Linked
	for i := 0; i < 5; i++ {
		l, err := ld.Dlmopen(img, nil)
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil && l.Text.Start < prev.Data.End {
			t.Fatalf("load %d overlaps previous: %x < %x", i, l.Text.Start, prev.Data.End)
		}
		prev = l
	}
	if len(ld.Loaded()) != 5 {
		t.Errorf("Loaded = %d, want 5", len(ld.Loaded()))
	}
}

func TestDlmopenChargesCost(t *testing.T) {
	ld, _ := newLoader()
	ch := &countCharger{}
	if _, err := ld.Dlmopen(testImage("prog"), ch); err != nil {
		t.Fatal(err)
	}
	want := 180*sim.Microsecond + 4*90*sim.Nanosecond
	if ch.total < want {
		t.Errorf("charged %v, want >= %v", ch.total, want)
	}
}

type countCharger struct{ total sim.Duration }

func (c *countCharger) Charge(d sim.Duration) { c.total += d }

// Property: for any pair of symbol sets, every symbol resolves inside its
// own data VMA and no two symbols of one namespace overlap.
func TestSymbolPlacementProperty(t *testing.T) {
	f := func(sizes []uint8) bool {
		img := &Image{Name: "p", PIE: true, TextSize: mem.PageSize,
			Main: func(interface{}) int { return 0 }}
		for i, s := range sizes {
			if i >= 30 {
				break
			}
			img.Symbols = append(img.Symbols, Symbol{
				Name: string(rune('a'+i%26)) + string(rune('0'+i/26)),
				Size: uint64(s%64) + 1,
			})
		}
		ld, _ := newLoader()
		l, err := ld.Dlmopen(img, nil)
		if err != nil {
			return false
		}
		type iv struct{ lo, hi uint64 }
		var placedIVs []iv
		for _, s := range img.Symbols {
			a, err := l.SymbolAddr(s.Name)
			if err != nil {
				return false
			}
			if a < l.Data.Start || a+s.Size > l.Data.End {
				return false
			}
			for _, o := range placedIVs {
				if a < o.hi && o.lo < a+s.Size {
					return false
				}
			}
			placedIVs = append(placedIVs, iv{a, a + s.Size})
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// libcImage is a "shared object": no Main, static + TLS state.
func libcImage() *Image {
	return &Image{
		Name: "libsim.so", PIE: true, TextSize: 2 * mem.PageSize,
		Symbols: []Symbol{
			{Name: "lib_state", Size: 16, Init: []byte{0xAB}},
			{Name: "errno", Size: 4, TLS: true},
		},
	}
}

func TestDlmopenLoadsDependencyClosure(t *testing.T) {
	ld, as := newLoader()
	prog := &Image{
		Name: "app", PIE: true, TextSize: mem.PageSize,
		Symbols: []Symbol{{Name: "app_var", Size: 8}},
		Main:    func(interface{}) int { return 0 },
		Deps:    []*Image{libcImage()},
	}
	l1, err := ld.Dlmopen(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := ld.Dlmopen(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Namespace-scoped resolution finds the dep's symbol.
	a1, err := l1.SymbolAddr("lib_state")
	if err != nil {
		t.Fatal(err)
	}
	a2, _ := l2.SymbolAddr("lib_state")
	if a1 == a2 {
		t.Error("shared-object state not privatized per namespace")
	}
	// Each namespace has its own dep instance under the same NSID.
	if len(l1.DepLinks) != 1 || l1.DepLinks[0].NSID != l1.NSID {
		t.Errorf("dep links = %+v", l1.DepLinks)
	}
	// The dep's init value is present in both instances.
	b := make([]byte, 1)
	as.Read(a1, b, nil)
	if b[0] != 0xAB {
		t.Errorf("ns1 lib_state init = %#x", b[0])
	}
	as.Read(a2, b, nil)
	if b[0] != 0xAB {
		t.Errorf("ns2 lib_state init = %#x", b[0])
	}
}

func TestDepTLSFoldedIntoStaticBlock(t *testing.T) {
	// The ELF static-TLS model: the dep's errno lives in the program's
	// per-task TLS block.
	ld, as := newLoader()
	prog := &Image{
		Name: "app", PIE: true, TextSize: mem.PageSize,
		Symbols: []Symbol{
			{Name: "x", Size: 8},
			{Name: "app_tls", Size: 8, TLS: true, Init: []byte{3}},
		},
		Main: func(interface{}) int { return 0 },
		Deps: []*Image{libcImage()},
	}
	l, err := ld.Dlmopen(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	tls := l.TLS()
	appOff, okA := tls.Offsets["app_tls"]
	errOff, okE := tls.Offsets["errno"]
	if !okA || !okE {
		t.Fatalf("TLS offsets = %v", tls.Offsets)
	}
	if appOff == errOff {
		t.Error("program and dep TLS overlap")
	}
	if tls.Size < 12 {
		t.Errorf("combined TLS size = %d", tls.Size)
	}
	// A fresh block carries both init images.
	block, err := ld.AllocTLSBlock(l, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 1)
	as.Read(block+appOff, b, nil)
	if b[0] != 3 {
		t.Errorf("app_tls init = %d", b[0])
	}
}

func TestBadDepRejected(t *testing.T) {
	ld, _ := newLoader()
	bad := libcImage()
	bad.PIE = false
	prog := &Image{
		Name: "app", PIE: true, TextSize: mem.PageSize,
		Symbols: []Symbol{{Name: "x", Size: 8}},
		Main:    func(interface{}) int { return 0 },
		Deps:    []*Image{bad},
	}
	if _, err := ld.Dlmopen(prog, nil); !errors.Is(err, ErrNotPIE) {
		t.Errorf("err = %v, want ErrNotPIE", err)
	}
}

// A Dlmopen that runs out of frames partway fails as a whole: no VMA,
// page or frame of it survives, Loaded() does not list it, and once
// memory is freed a retry loads at the same base in namespace 0.
// Frames run out in two places: initialising the program's own data
// symbols, and loading a dependency after the program itself.
func TestDlmopenOutOfMemoryLeavesNoTrace(t *testing.T) {
	big := &Image{
		Name: "big", PIE: true, TextSize: mem.PageSize,
		Symbols: []Symbol{{Name: "table", Size: mem.PageSize + 8, Init: []byte{1}}},
		Main:    func(interface{}) int { return 0 },
	}
	withDep := &Image{
		Name: "app", PIE: true, TextSize: mem.PageSize,
		Symbols: []Symbol{{Name: "app_var", Size: 8}},
		Main:    func(interface{}) int { return 0 },
		Deps:    []*Image{libcImage()},
	}
	for _, tc := range []struct {
		name string
		img  *Image
	}{
		{"data init", big},
		{"dependency", withDep},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Two frames, one held by a mapping the test frees before
			// the retry: the failed load may use the other.
			phys := mem.NewPhysMemory(2)
			as := mem.NewAddressSpace(phys, mem.Costs{})
			ld := New(as, Costs{})
			hog, err := as.Mmap(mem.PageSize, mem.ProtRead|mem.ProtWrite, "hog", true, nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ld.Dlmopen(tc.img, nil); !errors.Is(err, mem.ErrNoMemory) {
				t.Fatalf("err = %v, want ErrNoMemory", err)
			}
			if n := len(ld.Loaded()); n != 0 {
				t.Errorf("Loaded() lists %d objects after the failure, want 0", n)
			}
			if n := len(as.VMAs()); n != 1 {
				t.Errorf("%d VMAs after the failure, want only the hog", n)
			}
			if n := as.PageTable().Mapped(); n != 1 {
				t.Errorf("%d pages mapped after the failure, want only the hog's", n)
			}
			if n := phys.Allocated(); n != 1 {
				t.Errorf("%d frames allocated after the failure, want only the hog's", n)
			}

			if err := as.Munmap(hog, mem.PageSize); err != nil {
				t.Fatal(err)
			}
			l, err := ld.Dlmopen(tc.img, nil)
			if err != nil {
				t.Fatalf("retry after freeing memory: %v", err)
			}
			if l.Base != mem.TextBase || l.NSID != 0 {
				t.Errorf("retry loaded at %#x in ns %d, want %#x in ns 0", l.Base, l.NSID, uint64(mem.TextBase))
			}
		})
	}
}
