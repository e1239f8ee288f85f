// Package pip implements Process-in-Process (PiP) — the address-space
// sharing library of Hori et al. (HPDC'18) that this paper's ULP-PiP is
// built on. A PiP root process spawns PiP processes derived from PIE
// program images into the root's own virtual address space, loading each
// under a fresh dlmopen() namespace so that all static variables are
// privatized, yet everything remains addressable by everyone ("not
// shared but shareable").
//
// Two execution modes mirror the real library:
//
//   - ProcessMode uses clone() without CLONE_THREAD/CLONE_FILES: each PiP
//     process has its own PID, file descriptors and signal handlers, and
//     the root reaps it with wait(2).
//   - ThreadMode uses pthread_create(): PiP tasks are threads in the
//     root's process in the kernel's eyes (for systems without clone()),
//     while variable privatization still holds.
//
// Root.Load is the first half of every spawn: it loads an image into a
// Namespace (rank, privatized variables, TLS block, export/import).
// Spawn runs the namespace on a new kernel task; ULP-PiP (internal/core)
// embeds the same Namespace in each ULP and runs it on a BLT instead.
package pip

import (
	"errors"
	"fmt"

	"repro/internal/kernel"
	"repro/internal/loader"
	"repro/internal/mem"
)

// MaxTasks is the maximum number of PiP tasks per root, matching the
// real library's namespace limit.
const MaxTasks = 300

// Errors reported by PiP.
var (
	ErrTooManyTasks = errors.New("pip: too many PiP tasks")
	ErrNoExport     = errors.New("pip: no such exported address")
	ErrWrongMode    = errors.New("pip: operation not valid in this mode")
)

// Mode selects how PiP tasks are created.
type Mode int

// Execution modes.
const (
	ProcessMode Mode = iota
	ThreadMode
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == ThreadMode {
		return "thread"
	}
	return "process"
}

// Root is the PiP root process: a normal process whose address space all
// PiP tasks share.
type Root struct {
	kern  *kernel.Kernel
	task  *kernel.Task
	space *mem.AddressSpace
	ld    *loader.Loader

	loaded  int // namespaces loaded so far; the next one's rank
	procs   []*Process
	exports map[string]uint64
}

// Launch creates the PiP root process and starts it running body. The
// returned kernel task exits when body returns.
func Launch(k *kernel.Kernel, name string, body func(r *Root) int) *kernel.Task {
	space := k.NewAddressSpace()
	c := k.Machine().Costs
	ld := loader.New(space, loader.Costs{
		DlmopenBase:   c.DlmopenBase,
		DlmopenPerSym: c.DlmopenPerSym,
	})
	r := &Root{kern: k, space: space, ld: ld, exports: make(map[string]uint64)}
	task := k.NewTask(name, space, func(t *kernel.Task) int {
		r.task = t
		return body(r)
	})
	k.Start(task, 0)
	return task
}

// Kernel returns the kernel the root runs on.
func (r *Root) Kernel() *kernel.Kernel { return r.kern }

// Task returns the root's kernel task.
func (r *Root) Task() *kernel.Task { return r.task }

// Space returns the shared address space.
func (r *Root) Space() *mem.AddressSpace { return r.space }

// Loader returns the root's program loader.
func (r *Root) Loader() *loader.Loader { return r.ld }

// Processes returns the spawned PiP processes in rank order.
func (r *Root) Processes() []*Process {
	out := make([]*Process, len(r.procs))
	copy(out, r.procs)
	return out
}

// Namespace is one program image loaded into the root's address space:
// its dlmopen namespace, its rank among the root's namespaces and its
// TLS block. A PiP process and a ULP each embed one.
type Namespace struct {
	Rank    int
	Linked  *loader.Linked
	root    *Root
	tlsBase uint64
}

// Load loads img under a fresh dlmopen namespace, privatizing its
// variables, and allocates its TLS block. The root task pays for both,
// as the real pip_spawn does before it creates the task.
func (r *Root) Load(img *loader.Image) (Namespace, error) {
	linked, err := r.ld.Dlmopen(img, r.task)
	if err != nil {
		return Namespace{}, err
	}
	tlsBase, err := r.ld.AllocTLSBlock(linked, r.task)
	if err != nil {
		return Namespace{}, err
	}
	ns := Namespace{Rank: r.loaded, Linked: linked, root: r, tlsBase: tlsBase}
	r.loaded++
	return ns, nil
}

// TLSBase returns the address of the namespace's TLS block (the value
// its task's TLS register holds while it runs).
func (ns *Namespace) TLSBase() uint64 { return ns.tlsBase }

// SymbolAddr resolves one of the namespace's privatized variables.
func (ns *Namespace) SymbolAddr(name string) (uint64, error) {
	return ns.Linked.SymbolAddr(name)
}

// TLSAddr resolves one of the namespace's thread-local variables
// relative to its TLS block.
func (ns *Namespace) TLSAddr(name string) (uint64, error) {
	off, ok := ns.Linked.TLS().Offsets[name]
	if !ok {
		return 0, fmt.Errorf("%w: TLS %s", loader.ErrNoSuchSymbol, name)
	}
	return ns.tlsBase + off, nil
}

// Export publishes the address of one of the namespace's variables under
// a global name, modeling pip_export: any other task of the root may
// Import it and dereference the pointer as-is (same address space).
func (ns *Namespace) Export(global, symbol string) error {
	addr, err := ns.SymbolAddr(symbol)
	if err != nil {
		return err
	}
	ns.root.exports[global] = addr
	return nil
}

// Import resolves a previously exported address, modeling pip_import.
func (ns *Namespace) Import(global string) (uint64, error) {
	addr, ok := ns.root.exports[global]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNoExport, global)
	}
	return addr, nil
}

// Process is one PiP task: a program image loaded into the shared space
// plus the kernel task executing it.
type Process struct {
	Namespace
	Mode Mode
	task *kernel.Task
}

// Task returns the kernel task executing this PiP process. A
// thread-mode task is invalid once Join has returned.
func (p *Process) Task() *kernel.Task { return p.task }

// Env is the environment handle passed to a PiP program's Main. It is
// delivered as the loader.MainFunc argument (type-assert to *pip.Env).
type Env struct {
	*Process
	Arg interface{} // spawn argument
}

// Spawn loads img under a new namespace and starts it as a PiP task of
// the given mode. The root task pays the dlmopen and clone costs, as the
// real pip_spawn does. arg is handed to the program through its Env.
func (r *Root) Spawn(img *loader.Image, mode Mode, arg interface{}) (*Process, error) {
	if len(r.procs) >= MaxTasks {
		return nil, fmt.Errorf("%w: limit %d", ErrTooManyTasks, MaxTasks)
	}
	ns, err := r.Load(img)
	if err != nil {
		return nil, err
	}
	p := &Process{Namespace: ns, Mode: mode}
	flags := kernel.PiPProcessFlags
	if mode == ThreadMode {
		flags = kernel.PThreadFlags
	}
	name := fmt.Sprintf("%s.%d", img.Name, p.Rank)
	p.task = r.task.Clone(name, flags, func(t *kernel.Task) int {
		// A freshly created task points its TLS register at its own
		// TLS block before user code runs (the paper: "TLS register
		// content is saved at the time of creation of a ULP").
		t.LoadTLS(p.tlsBase)
		return img.Main(&Env{Process: p, Arg: arg})
	})
	r.procs = append(r.procs, p)
	return p, nil
}

// WaitAny reaps one terminated process-mode PiP task via wait(2),
// returning it and its exit status. In thread mode use Join.
func (r *Root) WaitAny() (*Process, int, error) {
	pid, status, err := r.task.Wait()
	if err != nil {
		return nil, 0, err
	}
	for _, p := range r.procs {
		// wait(2) never returns a thread, and a joined thread's task
		// may already serve another clone.
		if p.Mode == ProcessMode && p.task.PID() == pid {
			return p, status, nil
		}
	}
	return nil, status, nil
}

// Join waits for a thread-mode PiP task (pthread_join), once: the
// task is invalid after it returns.
func (p *Process) Join() (int, error) {
	if p.Mode != ThreadMode {
		return 0, ErrWrongMode
	}
	return p.root.task.Join(p.task), nil
}
