// Package fs implements the simulated tmpfs file system used by the
// paper's I/O evaluation (Fig. 7/8): an in-memory namespace of regular
// files with open/read/write/close semantics. The paper runs its
// open-write-close workload on tmpfs specifically "to exclude the
// variation of actual disk access" — an in-memory store is therefore the
// faithful model, with all timing charged by the kernel layer from the
// machine cost model.
package fs

import (
	"errors"
	"fmt"
	"sort"
)

// Errors reported by the file system.
var (
	ErrNotFound  = errors.New("fs: no such file")
	ErrExists    = errors.New("fs: file exists")
	ErrClosed    = errors.New("fs: file already closed")
	ErrReadOnly  = errors.New("fs: file not open for writing")
	ErrWriteOnly = errors.New("fs: file not open for reading")
)

// OpenFlags mirror the POSIX open(2) flags the workloads need.
type OpenFlags uint32

// Flag bits.
const (
	ORdOnly OpenFlags = 0
	OWrOnly OpenFlags = 1 << iota
	ORdWr
	OCreate
	OTrunc
	OAppend
	OExcl
)

func (f OpenFlags) readable() bool { return f&OWrOnly == 0 }
func (f OpenFlags) writable() bool { return f&(OWrOnly|ORdWr) != 0 }

// Inode is one regular file's metadata and contents.
type Inode struct {
	Path    string
	data    []byte
	nlink   int
	openers int
}

// Size reports the file length in bytes.
func (ino *Inode) Size() int { return len(ino.data) }

// FileSystem is a flat-namespace tmpfs instance.
type FileSystem struct {
	files map[string]*Inode

	// Stats.
	opens, writes, reads, closes uint64
	bytesWritten, bytesRead      uint64
}

// New creates an empty file system.
func New() *FileSystem {
	return &FileSystem{files: make(map[string]*Inode)}
}

// File is an open file description (what an fd points at).
type File struct {
	fs     *FileSystem
	inode  *Inode
	flags  OpenFlags
	pos    int
	closed bool
}

// Open opens (and with OCreate, creates) the file at path.
func (fs *FileSystem) Open(path string, flags OpenFlags) (*File, error) {
	if path == "" {
		return nil, fmt.Errorf("%w: empty path", ErrNotFound)
	}
	ino, ok := fs.files[path]
	if !ok {
		if flags&OCreate == 0 {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, path)
		}
		ino = &Inode{Path: path, nlink: 1}
		fs.files[path] = ino
	} else if flags&OExcl != 0 {
		return nil, fmt.Errorf("%w: %s", ErrExists, path)
	}
	if flags&OTrunc != 0 && flags.writable() {
		ino.data = ino.data[:0]
	}
	ino.openers++
	fs.opens++
	f := &File{fs: fs, inode: ino, flags: flags}
	if flags&OAppend != 0 {
		f.pos = len(ino.data)
	}
	return f, nil
}

// Write appends/overwrites at the file position and returns the byte
// count. A write past the end of file extends it with append, zero-filling
// only the hole a seek past the end left between the old end and the
// position, never the bytes the write itself fills; the extension reuses
// the buffer's spare capacity (the whole former file after O_TRUNC), so
// an open-truncate-write-close cycle of the same size allocates nothing.
func (f *File) Write(data []byte) (int, error) {
	if f.closed {
		return 0, ErrClosed
	}
	if !f.flags.writable() {
		return 0, ErrReadOnly
	}
	buf := f.inode.data
	if old := len(buf); f.pos > old {
		buf = append(buf, make([]byte, f.pos-old)...)
	}
	n := copy(buf[f.pos:], data)
	f.inode.data = append(buf, data[n:]...)
	f.pos += len(data)
	f.fs.writes++
	f.fs.bytesWritten += uint64(len(data))
	return len(data), nil
}

// Read fills buf from the file position and returns the byte count; 0 at
// EOF.
func (f *File) Read(buf []byte) (int, error) {
	if f.closed {
		return 0, ErrClosed
	}
	if !f.flags.readable() {
		return 0, ErrWriteOnly
	}
	if f.pos >= len(f.inode.data) {
		return 0, nil
	}
	n := copy(buf, f.inode.data[f.pos:])
	f.pos += n
	f.fs.reads++
	f.fs.bytesRead += uint64(n)
	return n, nil
}

// Seek sets the absolute file position.
func (f *File) Seek(pos int) error {
	if f.closed {
		return ErrClosed
	}
	if pos < 0 {
		return fmt.Errorf("fs: negative seek %d", pos)
	}
	f.pos = pos
	return nil
}

// Close releases the open file description. Double close is an error, as
// it is a real bug in real programs.
func (f *File) Close() error {
	if f.closed {
		return ErrClosed
	}
	f.closed = true
	f.inode.openers--
	f.fs.closes++
	return nil
}

// Inode exposes the file's inode (for tests and size queries).
func (f *File) Inode() *Inode { return f.inode }

// Unlink removes a file from the namespace. Open descriptions keep
// working (POSIX semantics); the inode is unreachable for new opens.
func (fs *FileSystem) Unlink(path string) error {
	ino, ok := fs.files[path]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	ino.nlink--
	delete(fs.files, path)
	return nil
}

// Stat returns the inode for path.
func (fs *FileSystem) Stat(path string) (*Inode, error) {
	ino, ok := fs.files[path]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	return ino, nil
}

// List returns all paths in sorted order.
func (fs *FileSystem) List() []string {
	out := make([]string, 0, len(fs.files))
	for p := range fs.files {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Stats reports cumulative operation counts.
func (fs *FileSystem) Stats() (opens, writes, reads, closes, bytesW, bytesR uint64) {
	return fs.opens, fs.writes, fs.reads, fs.closes, fs.bytesWritten, fs.bytesRead
}
