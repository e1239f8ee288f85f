package fs

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func TestOpenCreateWriteReadClose(t *testing.T) {
	f := New()
	w, err := f.Open("/tmp/a", OWrOnly|OCreate)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := w.Write([]byte("hello")); err != nil || n != 5 {
		t.Fatalf("Write = %d,%v", n, err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := f.Open("/tmp/a", ORdOnly)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	n, err := r.Read(buf)
	if err != nil || string(buf[:n]) != "hello" {
		t.Fatalf("Read = %q,%v", buf[:n], err)
	}
	if n, _ := r.Read(buf); n != 0 {
		t.Errorf("Read at EOF = %d, want 0", n)
	}
	r.Close()
}

func TestOpenMissingWithoutCreate(t *testing.T) {
	f := New()
	if _, err := f.Open("/nope", ORdOnly); !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v, want ErrNotFound", err)
	}
}

func TestOTruncResets(t *testing.T) {
	f := New()
	w, _ := f.Open("/a", OWrOnly|OCreate)
	w.Write([]byte("0123456789"))
	w.Close()
	w2, _ := f.Open("/a", OWrOnly|OTrunc)
	if w2.Inode().Size() != 0 {
		t.Errorf("size after O_TRUNC = %d, want 0", w2.Inode().Size())
	}
	w2.Close()
}

func TestWritePastEndAfterTruncZeroFillsHole(t *testing.T) {
	f := New()
	w, _ := f.Open("/a", OWrOnly|OCreate)
	w.Write([]byte("0123456789"))
	w.Close()
	// O_TRUNC keeps the old bytes in the buffer's spare capacity; a write
	// past the new end must not expose them in the hole.
	rw, _ := f.Open("/a", ORdWr|OTrunc)
	if err := rw.Seek(6); err != nil {
		t.Fatal(err)
	}
	rw.Write([]byte("xy"))
	rw.Seek(0)
	buf := make([]byte, 16)
	n, _ := rw.Read(buf)
	if got, want := string(buf[:n]), "\x00\x00\x00\x00\x00\x00xy"; got != want {
		t.Errorf("file = %q, want %q", got, want)
	}
	rw.Close()
}

func TestWritePastSeekOnFreshInodeZeroFillsHole(t *testing.T) {
	f := New()
	rw, _ := f.Open("/a", ORdWr|OCreate)
	if err := rw.Seek(5); err != nil {
		t.Fatal(err)
	}
	rw.Write([]byte("xyz"))
	rw.Seek(0)
	buf := make([]byte, 16)
	n, _ := rw.Read(buf)
	if got, want := string(buf[:n]), "\x00\x00\x00\x00\x00xyz"; got != want {
		t.Errorf("file = %q, want %q", got, want)
	}
	rw.Close()
}

func TestExtendingOverwriteKeepsPrefix(t *testing.T) {
	f := New()
	rw, _ := f.Open("/a", ORdWr|OCreate)
	rw.Write([]byte("abcdef"))
	// Starts inside the file and runs past its end, past the buffer's
	// capacity too: the bytes before the position must survive the growth.
	rw.Seek(4)
	long := strings.Repeat("Z", 4096)
	rw.Write([]byte(long))
	rw.Seek(0)
	buf := make([]byte, 8192)
	n, _ := rw.Read(buf)
	if got, want := string(buf[:n]), "abcd"+long; got != want {
		t.Errorf("file = %q... (%d B), want %q... (%d B)", got[:min(8, n)], n, want[:8], len(want))
	}
	rw.Close()
}

func TestTruncWriteCloseReusesBuffer(t *testing.T) {
	f := New()
	data := make([]byte, 4096)
	cycle := func(write bool) func() {
		return func() {
			w, err := f.Open("/a", OWrOnly|OCreate|OTrunc)
			if err != nil {
				t.Fatal(err)
			}
			if write {
				if n, err := w.Write(data); err != nil || n != len(data) {
					t.Fatalf("Write = %d, %v", n, err)
				}
			}
			w.Close()
		}
	}
	cycle(true)() // the first write allocates the file's buffer
	openClose := testing.AllocsPerRun(20, cycle(false))
	if got := testing.AllocsPerRun(20, cycle(true)); got != openClose {
		t.Errorf("truncate-write-close allocates %.1f per cycle, open-close alone %.1f: the write reallocates", got, openClose)
	}
}

func TestOExclOnExisting(t *testing.T) {
	f := New()
	w, _ := f.Open("/a", OWrOnly|OCreate)
	w.Close()
	if _, err := f.Open("/a", OWrOnly|OCreate|OExcl); !errors.Is(err, ErrExists) {
		t.Errorf("err = %v, want ErrExists", err)
	}
}

func TestAppendMode(t *testing.T) {
	f := New()
	w, _ := f.Open("/a", OWrOnly|OCreate)
	w.Write([]byte("abc"))
	w.Close()
	a, _ := f.Open("/a", OWrOnly|OAppend)
	a.Write([]byte("def"))
	a.Close()
	r, _ := f.Open("/a", ORdOnly)
	buf := make([]byte, 16)
	n, _ := r.Read(buf)
	if string(buf[:n]) != "abcdef" {
		t.Errorf("appended content = %q", buf[:n])
	}
}

func TestPermissionEnforcement(t *testing.T) {
	f := New()
	w, _ := f.Open("/a", OWrOnly|OCreate)
	if _, err := w.Read(make([]byte, 1)); !errors.Is(err, ErrWriteOnly) {
		t.Errorf("read on O_WRONLY: %v", err)
	}
	w.Close()
	r, _ := f.Open("/a", ORdOnly)
	if _, err := r.Write([]byte{1}); !errors.Is(err, ErrReadOnly) {
		t.Errorf("write on O_RDONLY: %v", err)
	}
}

func TestDoubleCloseError(t *testing.T) {
	f := New()
	w, _ := f.Open("/a", OWrOnly|OCreate)
	w.Close()
	if err := w.Close(); !errors.Is(err, ErrClosed) {
		t.Errorf("double close: %v", err)
	}
	if _, err := w.Write([]byte{1}); !errors.Is(err, ErrClosed) {
		t.Errorf("write after close: %v", err)
	}
}

func TestOverwriteMiddle(t *testing.T) {
	f := New()
	w, _ := f.Open("/a", ORdWr|OCreate)
	w.Write([]byte("0123456789"))
	w.Seek(3)
	w.Write([]byte("XY"))
	w.Seek(0)
	buf := make([]byte, 10)
	n, _ := w.Read(buf)
	if string(buf[:n]) != "012XY56789" {
		t.Errorf("content = %q", buf[:n])
	}
}

func TestUnlinkKeepsOpenDescription(t *testing.T) {
	f := New()
	w, _ := f.Open("/a", ORdWr|OCreate)
	w.Write([]byte("still here"))
	if err := f.Unlink("/a"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Open("/a", ORdOnly); !errors.Is(err, ErrNotFound) {
		t.Error("unlinked file still openable")
	}
	w.Seek(0)
	buf := make([]byte, 10)
	if n, err := w.Read(buf); err != nil || n != 10 {
		t.Errorf("read through open description after unlink = %d,%v", n, err)
	}
}

func TestListSorted(t *testing.T) {
	f := New()
	for _, p := range []string{"/c", "/a", "/b"} {
		w, _ := f.Open(p, OWrOnly|OCreate)
		w.Close()
	}
	got := f.List()
	want := []string{"/a", "/b", "/c"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("List = %v", got)
		}
	}
}

func TestStats(t *testing.T) {
	f := New()
	w, _ := f.Open("/a", ORdWr|OCreate)
	w.Write(make([]byte, 100))
	w.Seek(0)
	w.Read(make([]byte, 40))
	w.Close()
	opens, writes, reads, closes, bw, br := f.Stats()
	if opens != 1 || writes != 1 || reads != 1 || closes != 1 || bw != 100 || br != 40 {
		t.Errorf("stats = %d %d %d %d %d %d", opens, writes, reads, closes, bw, br)
	}
}

// Property: any sequence of writes at sequential positions reads back
// identically.
func TestWriteReadProperty(t *testing.T) {
	f := func(chunks [][]byte) bool {
		fsys := New()
		w, err := fsys.Open("/p", ORdWr|OCreate)
		if err != nil {
			return false
		}
		var want bytes.Buffer
		for _, c := range chunks {
			if len(c) > 4096 {
				c = c[:4096]
			}
			w.Write(c)
			want.Write(c)
		}
		w.Seek(0)
		got := make([]byte, want.Len())
		total := 0
		for total < len(got) {
			n, err := w.Read(got[total:])
			if err != nil || n == 0 {
				break
			}
			total += n
		}
		return bytes.Equal(got[:total], want.Bytes()) && total == want.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
