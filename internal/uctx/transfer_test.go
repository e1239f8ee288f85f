package uctx

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/kernel"
)

func TestTransferToSelfDoesNotSwitch(t *testing.T) {
	withTask(t, func(task *kernel.Task) {
		var stale Snapshot
		resumed := false
		c := New("self", func(c *Context) {
			carrier := c.Carrier()
			c.Save()
			if c.Running() {
				t.Error("running after Save")
			}
			stale = c.SnapshotNow()
			// Transferring to itself must return at once: a switch would
			// park this goroutine on its own resume channel forever.
			c.Transfer(c, carrier)
			resumed = c.Running() && c.Carrier() == carrier
			c.Yield("after")
		})
		ev := c.Step(task)
		if ev.Kind != EvYield || ev.Tag != "after" || ev.Ctx != c {
			t.Fatalf("ev = %+v, want the yield after the self-transfer", ev)
		}
		if !resumed {
			t.Error("self-transfer did not resume the context on its carrier")
		}
		if c.Steps() != 2 {
			t.Errorf("Steps = %d, want 2 (Step + self-transfer)", c.Steps())
		}
		if _, err := c.StepFrom(stale, task); !errors.Is(err, ErrStaleContext) {
			t.Errorf("snapshot from before the yield: err = %v, want ErrStaleContext", err)
		}
		c.Kill()
	})
}

func TestTransferChainReportsLastContext(t *testing.T) {
	withTask(t, func(task *kernel.Task) {
		var order []string
		var a, b, c *Context
		a = New("a", func(self *Context) {
			order = append(order, "a")
			carrier := self.Carrier()
			self.Save()
			self.Transfer(b, carrier)
			order = append(order, "a-again")
		})
		b = New("b", func(self *Context) {
			order = append(order, "b")
			carrier := self.Carrier()
			self.Save()
			self.Transfer(c, carrier)
			t.Error("b resumed after handing off to c")
		})
		c = New("c", func(self *Context) {
			order = append(order, "c")
			self.Yield("from-c")
			order = append(order, "c-again")
		})
		ev := a.Step(task)
		if ev.Kind != EvYield || ev.Tag != "from-c" || ev.Ctx != c {
			t.Fatalf("Step(a) = %+v, want c's yield", ev)
		}
		if a.Running() || b.Running() || c.Running() {
			t.Error("a context still counts as running after the chain yielded")
		}
		// a is parked inside Transfer; stepping it resumes it there.
		if ev := a.Step(task); ev.Kind != EvExit || ev.Ctx != a {
			t.Fatalf("Step(a) again = %+v, want a's exit", ev)
		}
		if ev := c.Step(task); ev.Kind != EvExit || ev.Ctx != c {
			t.Fatalf("Step(c) = %+v, want c's exit", ev)
		}
		if got := strings.Join(order, ","); got != "a,b,c,a-again,c-again" {
			t.Errorf("order = %s", got)
		}
		b.Kill()
	})
}

func TestTransferWaiterCanBeKilled(t *testing.T) {
	withTask(t, func(task *kernel.Task) {
		cleaned := false
		var a, b *Context
		a = New("a", func(self *Context) {
			defer func() { cleaned = true }()
			carrier := self.Carrier()
			self.Save()
			self.Transfer(b, carrier)
			t.Error("a continued after kill")
		})
		b = New("b", func(self *Context) { self.Yield(nil) })
		if ev := a.Step(task); ev.Ctx != b {
			t.Fatalf("ev = %+v, want b's yield", ev)
		}
		a.Kill()
		if !a.Done() || !cleaned {
			t.Errorf("killed waiter: done=%v defers ran=%v, want both", a.Done(), cleaned)
		}
		b.Kill()
	})
}

func TestTransferChainForwardsPanic(t *testing.T) {
	withTask(t, func(task *kernel.Task) {
		var a, b *Context
		a = New("a", func(self *Context) {
			carrier := self.Carrier()
			self.Save()
			self.Transfer(b, carrier)
		})
		b = New("b", func(*Context) { panic("boom in b") })
		func() {
			defer func() {
				if r := recover(); r != "boom in b" {
					t.Errorf("Step(a) raised %v, want b's panic", r)
				}
			}()
			a.Step(task)
			t.Error("Step returned past a panicking chain")
		}()
		if !b.Done() {
			t.Error("panicked context not done")
		}
		a.Kill()
	})
}
