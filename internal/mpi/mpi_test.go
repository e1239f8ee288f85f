package mpi

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/arch"
	"repro/internal/blt"
	"repro/internal/fs"
	"repro/internal/kernel"
	"repro/internal/sim"
)

func testCfg() Config {
	return Config{
		ProgCores:    []int{0, 1},
		SyscallCores: []int{2, 3},
		Idle:         blt.BusyWait,
	}
}

func newK(m *arch.Machine) *kernel.Kernel {
	return kernel.New(sim.New(), m)
}

func TestPingPong(t *testing.T) {
	k := newK(arch.Wallaby())
	var got []byte
	_, statuses, err := Run(k, testCfg(), 2, func(r *Rank) int {
		if r.Rank() == 0 {
			if err := r.Send(1, 7, []byte("ping")); err != nil {
				return 1
			}
			payload, from, tag, err := r.Recv(1, 8)
			if err != nil || from != 1 || tag != 8 {
				return 2
			}
			got = payload
		} else {
			payload, _, _, err := r.Recv(0, 7)
			if err != nil || string(payload) != "ping" {
				return 3
			}
			if err := r.Send(0, 8, []byte("pong")); err != nil {
				return 4
			}
		}
		return 0
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range statuses {
		if s != 0 {
			t.Errorf("rank %d status %d", i, s)
		}
	}
	if string(got) != "pong" {
		t.Errorf("got %q", got)
	}
}

func TestRingPassesToken(t *testing.T) {
	k := newK(arch.Albireo())
	const n = 6
	_, statuses, err := Run(k, testCfg(), n, func(r *Rank) int {
		next := (r.Rank() + 1) % n
		prev := (r.Rank() + n - 1) % n
		if r.Rank() == 0 {
			if err := r.Send(next, 0, []byte{1}); err != nil {
				return 1
			}
			payload, _, _, err := r.Recv(prev, 0)
			if err != nil || int(payload[0]) != n {
				return 2
			}
			return 0
		}
		payload, _, _, err := r.Recv(prev, 0)
		if err != nil {
			return 3
		}
		payload[0]++
		if err := r.Send(next, 0, payload); err != nil {
			return 4
		}
		return 0
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range statuses {
		if s != 0 {
			t.Errorf("rank %d status %d", i, s)
		}
	}
}

func TestRendezvousLargeMessage(t *testing.T) {
	k := newK(arch.Wallaby())
	payload := make([]byte, 256*1024) // above the threshold
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	var received []byte
	w, statuses, err := Run(k, testCfg(), 2, func(r *Rank) int {
		if r.Rank() == 0 {
			if err := r.Send(1, 1, payload); err != nil {
				return 1
			}
			// MPI_Send semantics: buffer reusable on return.
			payload[0] = 0xFF
		} else {
			data, _, _, err := r.Recv(0, 1)
			if err != nil {
				return 2
			}
			received = data
		}
		return 0
	})
	if err != nil || statuses[0] != 0 || statuses[1] != 0 {
		t.Fatalf("err=%v statuses=%v", err, statuses)
	}
	if received[0] == 0xFF {
		t.Error("receiver saw the sender's post-send mutation: rendezvous completed too early")
	}
	if !bytes.Equal(received[1:], payload[1:]) {
		t.Error("rendezvous payload corrupted")
	}
	eager, rndv, _ := w.Stats()
	if rndv != 1 {
		t.Errorf("rendezvous sends = %d, want 1 (eager=%d)", rndv, eager)
	}
}

func TestWildcardsAndProbe(t *testing.T) {
	k := newK(arch.Wallaby())
	_, statuses, err := Run(k, testCfg(), 3, func(r *Rank) int {
		switch r.Rank() {
		case 0:
			seen := map[int]bool{}
			for i := 0; i < 2; i++ {
				payload, from, tag, err := r.Recv(AnySource, AnyTag)
				if err != nil {
					return 1
				}
				if int(payload[0]) != from || tag != 10+from {
					return 2
				}
				seen[from] = true
			}
			if !seen[1] || !seen[2] {
				return 3
			}
			if len(r.inbox) != 0 {
				return 4 // queue must be drained
			}
		default:
			if err := r.Send(0, 10+r.Rank(), []byte{byte(r.Rank())}); err != nil {
				return 5
			}
		}
		return 0
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range statuses {
		if s != 0 {
			t.Errorf("rank %d status %d", i, s)
		}
	}
}

func TestBarrierOrdering(t *testing.T) {
	k := newK(arch.Wallaby())
	const n = 5
	arrived := 0
	minAtExit := n + 1
	_, statuses, err := Run(k, testCfg(), n, func(r *Rank) int {
		// Stagger arrivals.
		for i := 0; i < r.Rank()*3; i++ {
			r.Env().Yield()
		}
		arrived++
		if err := r.Barrier(); err != nil {
			return 1
		}
		if arrived < minAtExit {
			minAtExit = arrived
		}
		return 0
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range statuses {
		if s != 0 {
			t.Errorf("rank %d status %d", i, s)
		}
	}
	if minAtExit != n {
		t.Errorf("a rank left the barrier after only %d arrivals", minAtExit)
	}
}

func TestAllreduceSumAndMax(t *testing.T) {
	k := newK(arch.Albireo())
	const n = 7
	results := make([][]float64, n)
	_, statuses, err := Run(k, testCfg(), n, func(r *Rank) int {
		vals := []float64{float64(r.Rank()), float64(r.Rank() * r.Rank())}
		out, err := r.Allreduce(OpSum, vals)
		if err != nil {
			return 1
		}
		results[r.Rank()] = out
		mx, err := r.Allreduce(OpMax, []float64{float64(r.Rank())})
		if err != nil || mx[0] != n-1 {
			return 2
		}
		return 0
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range statuses {
		if s != 0 {
			t.Errorf("rank %d status %d", i, s)
		}
	}
	wantSum := 0.0
	wantSq := 0.0
	for i := 0; i < n; i++ {
		wantSum += float64(i)
		wantSq += float64(i * i)
	}
	for rank, out := range results {
		if len(out) != 2 || out[0] != wantSum || out[1] != wantSq {
			t.Errorf("rank %d allreduce = %v, want [%v %v]", rank, out, wantSum, wantSq)
		}
	}
}

func TestBcastFromNonZeroRoot(t *testing.T) {
	k := newK(arch.Wallaby())
	const n = 4
	got := make([]string, n)
	_, statuses, err := Run(k, testCfg(), n, func(r *Rank) int {
		var data []byte
		if r.Rank() == 2 {
			data = []byte("root-payload")
		}
		out, err := r.Bcast(2, data)
		if err != nil {
			return 1
		}
		got[r.Rank()] = string(out)
		return 0
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range statuses {
		if s != 0 {
			t.Errorf("rank %d status %d", i, s)
		}
	}
	for rank, s := range got {
		if s != "root-payload" {
			t.Errorf("rank %d bcast = %q", rank, s)
		}
	}
}

func TestOversubscribedRanksOnFewCores(t *testing.T) {
	// 12 ranks on 2 program cores: the whole point of ULP ranks. All
	// collective + p2p traffic must still complete deterministically.
	k := newK(arch.Wallaby())
	const n = 12
	_, statuses, err := Run(k, testCfg(), n, func(r *Rank) int {
		next := (r.Rank() + 1) % n
		prev := (r.Rank() + n - 1) % n
		for round := 0; round < 3; round++ {
			if err := r.Send(next, round, []byte{byte(r.Rank())}); err != nil {
				return 1
			}
			payload, _, _, err := r.Recv(prev, round)
			if err != nil || payload[0] != byte(prev) {
				return 2
			}
			if err := r.Barrier(); err != nil {
				return 3
			}
		}
		return 0
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range statuses {
		if s != 0 {
			t.Errorf("rank %d status %d", i, s)
		}
	}
}

func TestSendToBadRank(t *testing.T) {
	k := newK(arch.Wallaby())
	_, statuses, err := Run(k, testCfg(), 2, func(r *Rank) int {
		if r.Rank() == 0 {
			if err := r.Send(5, 0, nil); err == nil {
				return 1
			}
		}
		return 0
	})
	if err != nil {
		t.Fatal(err)
	}
	if statuses[0] != 0 {
		t.Errorf("status = %d", statuses[0])
	}
}

func TestRanksSyscallConsistencyUnderMPI(t *testing.T) {
	// Every rank writes a private file inside the message loop; the fds
	// must always resolve on the rank's own KC.
	k := newK(arch.Wallaby())
	const n = 6
	w, statuses, err := Run(k, testCfg(), n, func(r *Rank) int {
		env := r.Env()
		fd, err := env.Open(fmt.Sprintf("/rank%d.out", r.Rank()), fs.OWrOnly|fs.OCreate)
		if err != nil {
			return 1
		}
		if err := r.Barrier(); err != nil {
			return 2
		}
		if _, err := env.Write(fd, []byte("data")); err != nil {
			return 3
		}
		if err := env.Close(fd); err != nil {
			return 4
		}
		return 0
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range statuses {
		if s != 0 {
			t.Errorf("rank %d status %d", i, s)
		}
	}
	if v := w.Runtime().Violations(); len(v) != 0 {
		t.Errorf("violations: %+v", v)
	}
	if files := k.FS().List(); len(files) != n {
		t.Errorf("files = %v", files)
	}
}

func TestSendrecvExchangeCycle(t *testing.T) {
	// Pairwise exchange of rendezvous-sized buffers in a full cycle, the
	// MPI_Sendrecv pattern: it deadlocks with Send, and must complete
	// with Isend, then Recv, then the send's Wait.
	k := newK(arch.Wallaby())
	const n = 4
	size := RendezvousThreshold * 2
	_, statuses, err := Run(k, testCfg(), n, func(r *Rank) int {
		next := (r.Rank() + 1) % n
		prev := (r.Rank() + n - 1) % n
		out := make([]byte, size)
		for i := range out {
			out[i] = byte(r.Rank())
		}
		req, err := r.Isend(next, 5, out)
		if err != nil {
			return 1
		}
		in, _, _, err := r.Recv(prev, 5)
		if err != nil || len(in) != size {
			return 1
		}
		req.Wait()
		for _, b := range in {
			if b != byte(prev) {
				return 2
			}
		}
		return 0
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range statuses {
		if s != 0 {
			t.Errorf("rank %d status %d", i, s)
		}
	}
}

func TestIsendSelfMessage(t *testing.T) {
	// Rendezvous send-to-self: legal with Isend + Recv.
	k := newK(arch.Wallaby())
	size := RendezvousThreshold + 1
	_, statuses, err := Run(k, testCfg(), 2, func(r *Rank) int {
		req, err := r.Isend(r.Rank(), 3, make([]byte, size))
		if err != nil {
			return 1
		}
		if req.Done() {
			return 2 // rendezvous cannot complete before the Recv
		}
		got, from, _, err := r.Recv(r.Rank(), 3)
		if err != nil || from != r.Rank() || len(got) != size {
			return 3
		}
		req.Wait()
		if !req.Done() {
			return 4
		}
		return 0
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range statuses {
		if s != 0 {
			t.Errorf("rank %d status %d", i, s)
		}
	}
}
