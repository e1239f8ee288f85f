package mpi

import (
	"encoding/binary"
	"math"
)

// Collective tags live in a reserved space above user tags.
const (
	tagBarrier = 1 << 20
	tagBcast   = 1<<20 + 1
	tagReduce  = 1<<20 + 2
)

// Barrier blocks until every rank has entered it, via a binomial
// fan-in/fan-out tree over Send/Recv.
func (r *Rank) Barrier() error {
	// Fan-in to rank 0.
	for mask := 1; mask < r.Size(); mask <<= 1 {
		if r.rank&mask != 0 {
			return r.barrierLeaf(mask)
		}
		peer := r.rank | mask
		if peer < r.Size() {
			if _, _, _, err := r.Recv(peer, tagBarrier); err != nil {
				return err
			}
		}
	}
	// Rank 0: fan-out release.
	return r.barrierRelease()
}

func (r *Rank) barrierLeaf(mask int) error {
	parent := r.rank &^ mask
	if err := r.Send(parent, tagBarrier, nil); err != nil {
		return err
	}
	if _, _, _, err := r.Recv(parent, tagBarrier); err != nil {
		return err
	}
	return r.releaseChildren(mask)
}

func (r *Rank) barrierRelease() error { return r.releaseChildren(highBit(r.Size())) }

func (r *Rank) releaseChildren(below int) error {
	for mask := below >> 1; mask >= 1; mask >>= 1 {
		peer := r.rank | mask
		if peer != r.rank && peer < r.Size() {
			if err := r.Send(peer, tagBarrier, nil); err != nil {
				return err
			}
		}
	}
	return nil
}

func highBit(n int) int {
	b := 1
	for b < n {
		b <<= 1
	}
	return b
}

// Bcast distributes root's buffer to every rank (binomial tree) and
// returns each rank's copy.
func (r *Rank) Bcast(root int, data []byte) ([]byte, error) {
	rel := (r.rank - root + r.Size()) % r.Size()
	if rel != 0 {
		// Receive from our tree parent.
		payload, _, _, err := r.Recv(AnySource, tagBcast)
		if err != nil {
			return nil, err
		}
		data = payload
	}
	// Forward to children in the relative numbering.
	for mask := 1; mask < r.Size(); mask <<= 1 {
		if rel&mask != 0 {
			break
		}
		childRel := rel | mask
		if childRel < r.Size() && childRel != rel {
			child := (childRel + root) % r.Size()
			if err := r.Send(child, tagBcast, data); err != nil {
				return nil, err
			}
		}
	}
	return data, nil
}

// Reduce combines every rank's values with op; rank root receives the
// result (others get nil).
func (r *Rank) Reduce(root int, op Op, vals []float64) ([]float64, error) {
	acc := append([]float64(nil), vals...)
	rel := (r.rank - root + r.Size()) % r.Size()
	for mask := 1; mask < r.Size(); mask <<= 1 {
		if rel&mask != 0 {
			parentRel := rel &^ mask
			parent := (parentRel + root) % r.Size()
			return nil, r.Send(parent, tagReduce, encodeF64(acc))
		}
		childRel := rel | mask
		if childRel < r.Size() {
			payload, _, _, err := r.Recv(AnySource, tagReduce)
			if err != nil {
				return nil, err
			}
			for i, v := range decodeF64(payload) {
				if i < len(acc) {
					acc[i] = op.apply(acc[i], v)
				}
			}
		}
	}
	return acc, nil
}

// Allreduce is Reduce to rank 0 followed by Bcast.
func (r *Rank) Allreduce(op Op, vals []float64) ([]float64, error) {
	acc, err := r.Reduce(0, op, vals)
	if err != nil {
		return nil, err
	}
	var buf []byte
	if r.rank == 0 {
		buf = encodeF64(acc)
	}
	out, err := r.Bcast(0, buf)
	if err != nil {
		return nil, err
	}
	return decodeF64(out), nil
}

func encodeF64(vals []float64) []byte {
	out := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
	}
	return out
}

func decodeF64(b []byte) []float64 {
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}
