package kernel

import (
	"errors"

	"repro/internal/probe"
)

// Pipe-related errors.
var (
	ErrPipeClosed = errors.New("kernel: broken pipe (EPIPE)")
)

// Pipe is a unidirectional kernel byte channel with a bounded buffer —
// the conventional inter-process communication path that PiP's
// address-space sharing is designed to beat (every byte is copied twice:
// writer→kernel, kernel→reader).
type Pipe struct {
	kernel *Kernel
	buf    []byte
	cap    int

	readers, writers int
	readq, writeq    WaitQueue

	// Stats.
	bytesMoved uint64
}

// DefaultPipeCapacity matches Linux's 64 KiB default.
const DefaultPipeCapacity = 64 * 1024

// NewPipe creates a pipe endpoint pair owned by the calling task. Both
// ends start open; Close each side independently.
func (t *Task) NewPipe() (*PipeReader, *PipeWriter) {
	t.live()
	k := t.kernel
	fr := k.sysEnter(t, probe.SitePipe)
	t.Charge(k.machine.Costs.SyscallEntry + k.machine.Costs.OpenCost/2)
	p := &Pipe{kernel: k, cap: DefaultPipeCapacity, readers: 1, writers: 1}
	k.sysExit(t, fr)
	return &PipeReader{p: p}, &PipeWriter{p: p}
}

// PipeReader is the read end.
type PipeReader struct {
	p      *Pipe
	closed bool
}

// PipeWriter is the write end.
type PipeWriter struct {
	p      *Pipe
	closed bool
}

// BytesMoved reports the cumulative bytes that crossed the pipe.
func (p *Pipe) BytesMoved() uint64 { return p.bytesMoved }

// Write copies data into the pipe, blocking while the buffer is full.
// It returns ErrPipeClosed if the read end is gone.
func (w *PipeWriter) Write(t *Task, data []byte) (int, error) {
	p := w.p
	k := p.kernel
	if w.closed {
		return 0, ErrPipeClosed
	}
	written := 0
	for written < len(data) {
		fr := k.sysEnter(t, probe.SiteWritePipe)
		if p.readers == 0 {
			k.sysExit(t, fr)
			return written, ErrPipeClosed
		}
		space := p.cap - len(p.buf)
		if space == 0 {
			// Buffer full: sleep until a reader drains it.
			t.Charge(k.machine.Costs.SyscallEntry)
			k.block(t, &p.writeq, WaitPipeWrite, 0, nil)
			k.sysExit(t, fr)
			continue
		}
		n := len(data) - written
		if n > space {
			n = space
		}
		// One copy into the kernel buffer.
		t.Charge(k.machine.Costs.SyscallEntry + k.machine.Costs.WriteBase +
			fromBytes(k.machine.Costs.MemCopyBytePS, n))
		p.buf = append(p.buf, data[written:written+n]...)
		written += n
		p.bytesMoved += uint64(n)
		k.WakeAll(&p.readq, k.machine.Costs.FutexWakeLatency)
		k.sysExit(t, fr)
	}
	return written, nil
}

// Read copies bytes out of the pipe into buf, blocking while it is
// empty. At end-of-stream (writer closed, buffer drained) it returns 0.
func (r *PipeReader) Read(t *Task, buf []byte) (int, error) {
	p := r.p
	k := p.kernel
	if r.closed {
		return 0, ErrPipeClosed
	}
	for {
		fr := k.sysEnter(t, probe.SiteReadPipe)
		if len(p.buf) > 0 {
			n := copy(buf, p.buf)
			// The second copy, kernel buffer -> reader.
			t.Charge(k.machine.Costs.SyscallEntry + k.machine.Costs.ReadBase +
				fromBytes(k.machine.Costs.MemCopyBytePS, n))
			rest := copy(p.buf, p.buf[n:])
			p.buf = p.buf[:rest]
			k.WakeAll(&p.writeq, k.machine.Costs.FutexWakeLatency)
			k.sysExit(t, fr)
			return n, nil
		}
		if p.writers == 0 {
			t.Charge(k.machine.Costs.SyscallEntry)
			k.sysExit(t, fr)
			return 0, nil // EOF
		}
		t.Charge(k.machine.Costs.SyscallEntry)
		k.block(t, &p.readq, WaitPipeRead, 0, nil)
		k.sysExit(t, fr)
	}
}

// Close shuts the read end; writers then see EPIPE.
func (r *PipeReader) Close(t *Task) {
	if r.closed {
		return
	}
	r.closed = true
	r.p.readers--
	t.Charge(t.kernel.machine.Costs.SyscallEntry + t.kernel.machine.Costs.CloseCost/2)
	t.kernel.WakeAll(&r.p.writeq, t.kernel.machine.Costs.FutexWakeLatency)
}

// Close shuts the write end; readers then see EOF after draining.
func (w *PipeWriter) Close(t *Task) {
	if w.closed {
		return
	}
	w.closed = true
	w.p.writers--
	t.Charge(t.kernel.machine.Costs.SyscallEntry + t.kernel.machine.Costs.CloseCost/2)
	t.kernel.WakeAll(&w.p.readq, t.kernel.machine.Costs.FutexWakeLatency)
}
