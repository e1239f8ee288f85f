//go:build taskpoison

package kernel

// taskPoison: a thread that a Join reaped is never reused, and every
// exported method called on it panics, so a test run under
// `go test -tags taskpoison` finds each use of a *Task after its Join.
const taskPoison = true
