package aio

import (
	"errors"
	"testing"

	"repro/internal/arch"
	"repro/internal/fs"
	"repro/internal/kernel"
	"repro/internal/sim"
)

func run(t *testing.T, m *arch.Machine, body func(task *kernel.Task)) {
	t.Helper()
	e := sim.New()
	k := kernel.New(e, m)
	task := k.NewTask("main", k.NewAddressSpace(), func(task *kernel.Task) int {
		body(task)
		return 0
	})
	k.Start(task, 0)
	if err := e.Run(); err != nil {
		t.Fatalf("engine: %v", err)
	}
}

func TestWriteAsyncSuspend(t *testing.T) {
	run(t, arch.Wallaby(), func(task *kernel.Task) {
		ctx, err := New(task)
		if err != nil {
			t.Error(err)
			return
		}
		fd, _ := task.Open("/f", fs.OCreate|fs.OWrOnly)
		r, err := ctx.WriteAsync(task, fd, []byte("async-data"))
		if err != nil {
			t.Error(err)
			return
		}
		n, err := r.Suspend(task)
		if err != nil || n != 10 {
			t.Errorf("suspend = %d,%v", n, err)
		}
		task.Close(fd)
		ctx.Close(task)
		ino, err := task.Kernel().FS().Stat("/f")
		if err != nil || ino.Size() != 10 {
			t.Errorf("file size = %v, %v", ino, err)
		}
		// The helper wrote the submitted bytes, not just their count.
		fd, _ = task.Open("/f", fs.ORdOnly)
		buf := make([]byte, 10)
		if n, err := task.Read(fd, buf); err != nil || n != 10 || string(buf) != "async-data" {
			t.Errorf("read back = %d,%v,%q", n, err, buf)
		}
		task.Close(fd)
	})
}

func TestReturnPollingLoop(t *testing.T) {
	run(t, arch.Wallaby(), func(task *kernel.Task) {
		ctx, _ := New(task)
		fd, _ := task.Open("/f", fs.OCreate|fs.OWrOnly)
		r, _ := ctx.WriteAsync(task, fd, make([]byte, 4096))
		polls := 0
		for {
			n, err := r.Return(task)
			if errors.Is(err, ErrInProgress) {
				polls++
				task.SchedYield() // the ULT idiom: yield + poll
				continue
			}
			if err != nil || n != 4096 {
				t.Errorf("return = %d,%v", n, err)
			}
			break
		}
		if polls == 0 {
			t.Error("write completed synchronously; no overlap possible")
		}
		task.Close(fd)
		ctx.Close(task)
	})
}

func TestHelperCreatedLazilyAndOnce(t *testing.T) {
	run(t, arch.Wallaby(), func(task *kernel.Task) {
		ctx, _ := New(task)
		if ctx.Helper() != nil {
			t.Error("helper exists before first submission")
		}
		fd, _ := task.Open("/f", fs.OCreate|fs.OWrOnly)
		r1, _ := ctx.WriteAsync(task, fd, []byte("a"))
		h := ctx.Helper()
		if h == nil {
			t.Error("no helper after submission")
		}
		r1.Suspend(task)
		r2, _ := ctx.WriteAsync(task, fd, []byte("b"))
		if ctx.Helper() != h {
			t.Error("second submission created a new helper")
		}
		r2.Suspend(task)
		task.Close(fd)
		ctx.Close(task)
		sub, comp := ctx.Stats()
		if sub != 2 || comp != 2 {
			t.Errorf("stats = %d,%d", sub, comp)
		}
	})
}

func TestHelperIsThreadSharingFDs(t *testing.T) {
	run(t, arch.Wallaby(), func(task *kernel.Task) {
		ctx, _ := New(task)
		fd, _ := task.Open("/f", fs.OCreate|fs.OWrOnly)
		r, _ := ctx.WriteAsync(task, fd, []byte("x"))
		if _, err := r.Suspend(task); err != nil {
			t.Errorf("helper failed to use the submitter's fd: %v", err)
		}
		if ctx.Helper().TGID() != task.TGID() {
			t.Error("helper is not a thread of the submitting process")
		}
		task.Close(fd)
		ctx.Close(task)
	})
}

func TestSubmitAfterCloseFails(t *testing.T) {
	run(t, arch.Wallaby(), func(task *kernel.Task) {
		ctx, _ := New(task)
		ctx.Close(task)
		if _, err := ctx.WriteAsync(task, 3, []byte("x")); !errors.Is(err, ErrClosed) {
			t.Errorf("err = %v, want ErrClosed", err)
		}
	})
}

func TestAsyncWriteOverlapsCompute(t *testing.T) {
	// The point of AIO: the submitter computes while the helper writes.
	// Overlapped total time must be well below the serialized sum.
	run(t, arch.Albireo(), func(task *kernel.Task) {
		e := task.Kernel().Engine()
		m := task.Kernel().Machine()
		fd, _ := task.Open("/f", fs.OCreate|fs.OWrOnly)
		buf := make([]byte, 1<<20)

		// Serialized reference: synchronous write + compute.
		writeTime := m.WriteCost(len(buf), false)
		start := e.Now()
		task.Write(fd, buf, false)
		task.Compute(writeTime)
		serial := e.Now().Sub(start)

		ctx, _ := New(task)
		// Warm up the helper thread.
		r0, _ := ctx.WriteAsync(task, fd, buf[:1])
		r0.Suspend(task)

		start = e.Now()
		r, _ := ctx.WriteAsync(task, fd, buf)
		task.Compute(writeTime)
		r.Suspend(task)
		overlapped := e.Now().Sub(start)

		if float64(overlapped) > 0.75*float64(serial) {
			t.Errorf("overlapped %v vs serial %v: insufficient overlap", overlapped, serial)
		}
		task.Close(fd)
		ctx.Close(task)
	})
}
