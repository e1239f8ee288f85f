package mem

import "testing"

// BenchmarkPageTableMapUnmap measures radix-tree insert+delete.
func BenchmarkPageTableMapUnmap(b *testing.B) {
	pt := NewPageTable()
	for i := 0; i < b.N; i++ {
		va := uint64(i%4096) << PageShift
		pt.Map(va, &PTE{})
		pt.Unmap(va)
	}
}

// BenchmarkTranslateHot measures a TLB-hot translation.
func BenchmarkTranslateHot(b *testing.B) {
	as := NewAddressSpace(NewPhysMemory(0), Costs{})
	addr, err := as.Mmap(PageSize, ProtRead|ProtWrite, "b", true, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := as.Translate(addr, false, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWrite4K measures a page-sized simulated memory write.
func BenchmarkWrite4K(b *testing.B) {
	as := NewAddressSpace(NewPhysMemory(0), Costs{})
	addr, _ := as.Mmap(PageSize, ProtRead|ProtWrite, "b", true, nil)
	buf := make([]byte, PageSize)
	b.SetBytes(PageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := as.Write(addr, buf, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWordReadWrite measures one ReadU64 plus one WriteU64 of a
// mapped word, the access every futex, semaphore and lock word makes.
func BenchmarkWordReadWrite(b *testing.B) {
	as := NewAddressSpace(NewPhysMemory(0), Costs{})
	addr, err := as.Mmap(PageSize, ProtRead|ProtWrite, "b", true, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := as.ReadU64(addr+64, nil)
		if err != nil {
			b.Fatal(err)
		}
		if err := as.WriteU64(addr+64, v+1, nil); err != nil {
			b.Fatal(err)
		}
	}
}
