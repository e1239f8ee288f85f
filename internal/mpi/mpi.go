// Package mpi implements a small MPI-like message-passing library whose
// ranks are user-level processes — the deployment the paper motivates in
// §III: "most MPI implementations are based on [the] multi-process
// execution model ... Therefore, ULP is a more suitable execution model
// than ULT", with over-subscribed ranks hiding communication latency
// through 150 ns user-level context switches instead of kernel switches.
//
// Because all ranks share one virtual address space (PiP), message
// transfer is a single memcpy — eager below the rendezvous threshold
// (sender copies into the match queue), single-copy rendezvous above it
// (receiver copies straight out of the sender's buffer). A rank blocked
// in Recv simply yields its program core to another ready rank: it still
// yields in virtual time, once per failed probe of its match queue, but
// its polls run inside the scheduler pass of whichever rank's yield
// dispatches it (core.Env.YieldUntil), so the rank's own context is
// resumed only once the message is there.
package mpi

import (
	"errors"
	"fmt"

	"repro/internal/blt"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/loader"
	"repro/internal/sim"
)

// AnySource matches messages from every sender (MPI_ANY_SOURCE).
const AnySource = -1

// AnyTag matches every tag (MPI_ANY_TAG).
const AnyTag = -1

// RendezvousThreshold is the eager/rendezvous switch (bytes), matching
// common MPI defaults.
const RendezvousThreshold = 16 * 1024

// Errors.
var (
	ErrBadRank = errors.New("mpi: rank out of range")
)

// Op is a reduction operator.
type Op int

// Reduction operators.
const (
	OpSum Op = iota
	OpMax
	OpMin
)

func (o Op) apply(a, b float64) float64 {
	switch o {
	case OpMax:
		if a > b {
			return a
		}
		return b
	case OpMin:
		if a < b {
			return a
		}
		return b
	default:
		return a + b
	}
}

// message is one in-flight point-to-point message.
type message struct {
	src, tag int
	data     []byte // eager: the copied payload
	src2     []byte // rendezvous: the sender's live buffer
	rndv     bool
	taken    bool // rendezvous completion flag (sender may reuse buffer)
}

// World is one communicator: size ranks over a ULP-PiP runtime.
type World struct {
	rt    *core.Runtime
	size  int
	ranks []*Rank

	// Stats.
	eagerSends, rndvSends uint64
	bytesMoved            uint64
}

// Runtime exposes the underlying ULP runtime.
func (w *World) Runtime() *core.Runtime { return w.rt }

// Stats reports send counts and payload bytes moved.
func (w *World) Stats() (eager, rndv, bytes uint64) {
	return w.eagerSends, w.rndvSends, w.bytesMoved
}

// Rank is one MPI process: a ULP with a match queue.
type Rank struct {
	world *World
	rank  int
	env   *core.Env
	inbox []*message

	// The wait in flight: Recv's request and result, and the
	// rendezvous message a send waits on. The polls that read them are
	// bound once, when the rank is created, so a wait allocates nothing.
	recvSrc, recvTag int
	gotData          []byte
	gotSrc, gotTag   int
	sending          *message
	recvPoll         func(t *kernel.Task) bool
	sentPoll         func(t *kernel.Task) bool
}

// newRank creates rank i of w with its polls bound.
func newRank(w *World, i int) *Rank {
	r := &Rank{world: w, rank: i}
	r.recvPoll, r.sentPoll = r.pollRecv, r.pollSent
	return r
}

// Rank reports this process's rank.
func (r *Rank) Rank() int { return r.rank }

// Size reports the communicator size.
func (r *Rank) Size() int { return r.world.size }

// Env exposes the underlying ULP environment (for file I/O etc.).
func (r *Rank) Env() *core.Env { return r.env }

// Program is a rank's code; its return value is the rank's exit status.
type Program func(r *Rank) int

// Config deploys a world.
type Config struct {
	ProgCores    []int
	SyscallCores []int
	Idle         blt.IdlePolicy
}

// Run boots a ULP-PiP runtime, launches size ranks executing program,
// waits for them all and returns their exit statuses alongside the world
// (for stats). It drives the engine to completion.
func Run(k *kernel.Kernel, cfg Config, size int, program Program) (*World, []int, error) {
	w := &World{size: size}
	img := &loader.Image{
		Name: "mpi-rank", PIE: true, TextSize: 8192,
		Symbols: []loader.Symbol{
			{Name: "rank_state", Size: 256},
			{Name: "errno", Size: 8, TLS: true},
		},
		Main: func(envI interface{}) int {
			env := envI.(*core.Env)
			r := env.Arg.(*Rank)
			r.env = env
			env.Decouple() // ranks run as ULTs on the program cores
			status := program(r)
			env.Couple() // terminate as a KLT so wait(2) reaps us
			return status
		},
	}
	var statuses []int
	var runErr error
	_, bootErr := core.Boot(k, core.Config{
		ProgCores:    cfg.ProgCores,
		SyscallCores: cfg.SyscallCores,
		Idle:         cfg.Idle,
	}, func(rt *core.Runtime) int {
		w.rt = rt
		// Register every rank's match queue before any rank runs: an
		// early rank may address a peer that has not been spawned yet.
		for i := 0; i < size; i++ {
			w.ranks = append(w.ranks, newRank(w, i))
		}
		for i := 0; i < size; i++ {
			if _, err := rt.Spawn(img, core.SpawnOpts{
				Name: fmt.Sprintf("rank%d", i), Arg: w.ranks[i], Scheduler: -1,
			}); err != nil {
				runErr = err
				return 1
			}
		}
		var err error
		statuses, err = rt.WaitAll()
		if err != nil {
			runErr = err
		}
		rt.Shutdown()
		return 0
	})
	if bootErr != nil {
		return w, nil, bootErr
	}
	if err := k.Engine().Run(); err != nil {
		return w, nil, err
	}
	return w, statuses, runErr
}

// charge bills the rank's current carrier.
func (r *Rank) charge(d sim.Duration) { r.env.Carrier().Charge(d) }

// post queues a message for rank dst. Small messages are eager: one
// copy into the match queue, and the send is complete. Large ones are
// rendezvous: the message exposes the sender's buffer, the receiver
// copies directly out of it (single copy — the PiP advantage) and sets
// taken once the buffer is reusable.
func (r *Rank) post(dst, tag int, data []byte) *message {
	costs := r.env.Carrier().Kernel().Machine().Costs
	target := r.world.ranks[dst]
	m := &message{src: r.rank, tag: tag}
	if len(data) <= RendezvousThreshold {
		m.data = append([]byte(nil), data...)
		r.charge(costs.AtomicOp + costs.RunQueueOp +
			sim.Duration(costs.MemCopyBytePS*float64(len(data))))
		target.inbox = append(target.inbox, m)
		r.world.eagerSends++
		r.world.bytesMoved += uint64(len(data))
		return m
	}
	m.rndv = true
	m.src2 = data
	r.charge(costs.AtomicOp + costs.RunQueueOp)
	target.inbox = append(target.inbox, m)
	r.world.rndvSends++
	return m
}

// Send delivers data to rank dst with the given tag. Small messages are
// eager; large ones post a rendezvous descriptor and block until the
// receiver has pulled the data (so the sender's buffer is reusable on
// return, MPI_Send semantics).
func (r *Rank) Send(dst, tag int, data []byte) error {
	if dst < 0 || dst >= r.world.size {
		return fmt.Errorf("%w: send to %d of %d", ErrBadRank, dst, r.world.size)
	}
	if m := r.post(dst, tag, data); m.rndv {
		r.waitSent(m) // let the receiver (or anyone) run
	}
	return nil
}

// waitSent yields until the receiver has pulled rendezvous message m.
func (r *Rank) waitSent(m *message) {
	r.sending = m
	r.env.YieldUntil(r.sentPoll)
	r.sending = nil
}

// pollSent is the rendezvous sender's poll: has the receiver taken the
// message yet?
func (r *Rank) pollSent(*kernel.Task) bool { return r.sending.taken }

// SendReq is a nonblocking send handle (MPI_Request).
type SendReq struct {
	rank *Rank
	m    *message
}

// Wait blocks (yielding) until the send buffer is reusable: immediately
// for eager sends, after the receiver pulls the data for rendezvous.
func (q *SendReq) Wait() {
	if q.m == nil || !q.m.rndv {
		return
	}
	q.rank.waitSent(q.m)
}

// Done reports completion without blocking (MPI_Test).
func (q *SendReq) Done() bool { return q.m == nil || !q.m.rndv || q.m.taken }

// Isend is the nonblocking send (MPI_Isend): it never blocks the caller,
// even above the rendezvous threshold — essential for cyclic exchange
// patterns, which deadlock with synchronous sends. The buffer must not
// be reused until Wait returns.
func (r *Rank) Isend(dst, tag int, data []byte) (*SendReq, error) {
	if dst < 0 || dst >= r.world.size {
		return nil, fmt.Errorf("%w: isend to %d of %d", ErrBadRank, dst, r.world.size)
	}
	return &SendReq{rank: r, m: r.post(dst, tag, data)}, nil
}

// Recv returns the payload of the first queued message matching src and
// tag (AnySource/AnyTag wildcards allowed), yielding the core while it
// waits — this is the latency hiding the paper is after: a waiting rank
// costs one user-level switch, not an idle core.
func (r *Rank) Recv(src, tag int) (data []byte, fromRank, msgTag int, err error) {
	if src != AnySource && (src < 0 || src >= r.world.size) {
		return nil, 0, 0, fmt.Errorf("%w: recv from %d", ErrBadRank, src)
	}
	r.recvSrc, r.recvTag = src, tag
	r.env.YieldUntil(r.recvPoll)
	data, r.gotData = r.gotData, nil
	return data, r.gotSrc, r.gotTag, nil
}

// pollRecv is Recv's poll, run on carrier t: probe the match queue once
// and take the first message matching the request — for a rendezvous,
// by copying it out of the sender's buffer.
func (r *Rank) pollRecv(t *kernel.Task) bool {
	costs := &t.Kernel().Machine().Costs
	t.Charge(costs.AtomicOp) // probe the match queue
	for i, m := range r.inbox {
		if (r.recvSrc != AnySource && m.src != r.recvSrc) || (r.recvTag != AnyTag && m.tag != r.recvTag) {
			continue
		}
		r.inbox = append(r.inbox[:i], r.inbox[i+1:]...)
		r.gotData, r.gotSrc, r.gotTag = m.data, m.src, m.tag
		if m.rndv {
			r.gotData = append([]byte(nil), m.src2...)
			t.Charge(sim.Duration(costs.MemCopyBytePS * float64(len(r.gotData))))
			r.world.bytesMoved += uint64(len(r.gotData))
			m.taken = true
		}
		return true
	}
	return false
}
