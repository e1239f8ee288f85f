// Package leakcheck is the tests' goroutine-leak oracle. Every simulated
// task, proc runner and UC lives on a goroutine, so a run that leaves
// one behind has leaked a proc, a runner or a context. A live proc
// always holds its runner's goroutine, so a count back at its baseline
// also means that no engine has a live proc (LiveProcs is 0).
package leakcheck

import (
	"runtime"
	"testing"
	"time"
)

// deadline bounds the wait for goroutines that are just ending: a reaped
// runner or a killed proc exits right after the send that releases it.
const deadline = 5 * time.Second

// Baseline returns the goroutine count a run must return to. Take it
// after a warm-up run, so that goroutines started once per process are
// counted, and once goroutines ending from earlier work are gone.
func Baseline() int {
	n := runtime.NumGoroutine()
	for end := time.Now().Add(deadline); time.Now().Before(end); {
		time.Sleep(5 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			break
		}
		n = m
	}
	return n
}

// Check fails t unless the goroutine count falls back to base within
// the deadline.
func Check(t testing.TB, base int) {
	t.Helper()
	end := time.Now().Add(deadline)
	for runtime.NumGoroutine() > base && time.Now().Before(end) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		buf := make([]byte, 1<<16)
		t.Fatalf("goroutine leak: %d goroutines, baseline %d\n%s", n, base, buf[:runtime.Stack(buf, true)])
	}
}
