package mem

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// fuzzPages is the size of the mapping every fuzzed space holds.
const fuzzPages = 4

// fuzzSpace is one address space under test plus the flat model of its
// mapping: every Read must return exactly the model's bytes.
type fuzzSpace struct {
	as    *AddressSpace
	addr  uint64
	model []byte
}

// fuzzInput decodes operands from the fuzzer's bytes; past the end it
// reads zeros.
type fuzzInput []byte

func (in *fuzzInput) next() byte {
	if len(*in) == 0 {
		return 0
	}
	b := (*in)[0]
	*in = (*in)[1:]
	return b
}

func (in *fuzzInput) u16() int { return int(in.next())<<8 | int(in.next()) }

// fuzzWord derives a word with eight distinct bytes from seed.
func fuzzWord(seed byte) uint64 { return 0x0807060504030201 * uint64(seed|1) }

// checkWord fails t unless ReadU64 at off returns the model's word.
func (s *fuzzSpace) checkWord(t *testing.T, step, off int) {
	t.Helper()
	got, err := s.as.ReadU64(s.addr+uint64(off), nil)
	if err != nil {
		t.Fatalf("step %d: ReadU64 at %#x: %v", step, off, err)
	}
	if want := binary.LittleEndian.Uint64(s.model[off:]); got != want {
		t.Fatalf("step %d: ReadU64 at %#x = %#x, model has %#x", step, off, got, want)
	}
}

// FuzzAddressSpaceAccess drives a few address spaces that share one
// physical memory through random writes and reads at any offset and
// length (page-crossing included), word loads and stores, copy-on-write
// forks followed by writes on either side, unmap/remap cycles that
// recycle frames, and mprotect round trips. It checks every read against
// a flat model of each space and, at the end, that unmapping everything
// returns every frame.
//
// Each operation is one opcode byte (mod 7) and its operands:
//
//	0 space off:u16 len:u16 seed  Write a pattern derived from seed
//	1 space off:u16 len:u16       Read and compare with the model
//	2 space                       ForkCoW into a new space (at most 4)
//	3 space populated             Munmap the mapping and Mmap it again
//	4 space off:u16 seed          WriteU64 a word derived from seed
//	5 space off:u16               ReadU64 and compare with the model
//	6 space off:u16 seed          Protect read-only; a WriteU64 must fail
//	                              with ErrProtViolation and change nothing;
//	                              then Protect read-write again
//
// space is taken modulo the number of spaces, off and len modulo what
// fits in the mapping.
func FuzzAddressSpaceAccess(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		const size = fuzzPages * PageSize
		phys := NewPhysMemory(0)
		first := &fuzzSpace{as: NewAddressSpace(phys, testCosts()), model: make([]byte, size)}
		addr, err := first.as.Mmap(size, ProtRead|ProtWrite, "fuzz", false, nil)
		if err != nil {
			t.Fatal(err)
		}
		first.addr = addr
		spaces := []*fuzzSpace{first}

		in := fuzzInput(data)
		for step := 0; len(in) > 0 && step < 256; step++ {
			op := in.next() % 7
			s := spaces[int(in.next())%len(spaces)]
			switch op {
			case 0, 1:
				off := in.u16() % size
				n := in.u16() % (size - off + 1)
				if op == 0 {
					seed := in.next()
					buf := make([]byte, n)
					for i := range buf {
						buf[i] = seed + byte(i*7)
					}
					if err := s.as.Write(s.addr+uint64(off), buf, nil); err != nil {
						t.Fatalf("step %d: write %d bytes at %#x: %v", step, n, off, err)
					}
					copy(s.model[off:], buf)
					continue
				}
				buf := make([]byte, n)
				if err := s.as.Read(s.addr+uint64(off), buf, nil); err != nil {
					t.Fatalf("step %d: read %d bytes at %#x: %v", step, n, off, err)
				}
				if !bytes.Equal(buf, s.model[off:off+n]) {
					t.Fatalf("step %d: read %d bytes at %#x differs from the model", step, n, off)
				}
			case 2:
				if len(spaces) < 4 {
					spaces = append(spaces, &fuzzSpace{
						as:    s.as.ForkCoW(nil),
						addr:  s.addr,
						model: bytes.Clone(s.model),
					})
				}
			case 3:
				if err := s.as.Munmap(s.addr, size); err != nil {
					t.Fatalf("step %d: munmap: %v", step, err)
				}
				addr, err := s.as.Mmap(size, ProtRead|ProtWrite, "fuzz", in.next()&1 != 0, nil)
				if err != nil {
					t.Fatalf("step %d: mmap: %v", step, err)
				}
				s.addr = addr
				clear(s.model)
			case 4:
				off := in.u16() % (size - 7)
				val := fuzzWord(in.next())
				if err := s.as.WriteU64(s.addr+uint64(off), val, nil); err != nil {
					t.Fatalf("step %d: WriteU64 at %#x: %v", step, off, err)
				}
				binary.LittleEndian.PutUint64(s.model[off:], val)
			case 5:
				s.checkWord(t, step, in.u16()%(size-7))
			case 6:
				off := in.u16() % (size - 7)
				if err := s.as.Protect(s.addr, ProtRead); err != nil {
					t.Fatalf("step %d: protect read-only: %v", step, err)
				}
				err := s.as.WriteU64(s.addr+uint64(off), fuzzWord(in.next()), nil)
				if !errors.Is(err, ErrProtViolation) {
					t.Fatalf("step %d: WriteU64 at %#x of a read-only mapping: err = %v, want ErrProtViolation", step, off, err)
				}
				s.checkWord(t, step, off)
				if err := s.as.Protect(s.addr, ProtRead|ProtWrite); err != nil {
					t.Fatalf("step %d: protect read-write: %v", step, err)
				}
			}
		}

		buf := make([]byte, size)
		for i, s := range spaces {
			if err := s.as.Read(s.addr, buf, nil); err != nil {
				t.Fatalf("space %d: final read: %v", i, err)
			}
			if !bytes.Equal(buf, s.model) {
				t.Fatalf("space %d: final contents differ from the model", i)
			}
		}
		for i, s := range spaces {
			if err := s.as.Munmap(s.addr, size); err != nil {
				t.Fatalf("space %d: final munmap: %v", i, err)
			}
		}
		if n := phys.Allocated(); n != 0 {
			t.Fatalf("%d frames still allocated after every mapping was unmapped", n)
		}
	})
}
