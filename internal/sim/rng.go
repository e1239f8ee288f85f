package sim

// RNG is a small deterministic pseudo-random generator (SplitMix64) used
// by workload generators. We avoid math/rand so that simulations remain
// reproducible across Go releases regardless of rand's internals, and so
// that seeding is explicit everywhere.
type RNG struct {
	state uint64
}

// gamma is SplitMix64's increment: 2^64 divided by the golden ratio.
const gamma = 0x9e3779b97f4a7c15

// NewRNG creates a generator from a seed. Equal seeds yield equal streams.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += gamma
	return SplitMix(r.state, 0)
}

// SplitMix is the SplitMix64 finalizer over seed + lane·gamma: output
// number lane of NewRNG(seed), computed directly. It derives the seeds of
// independent sub-streams of one run seed, one lane each, so a stream's
// draws never shift another's: the fault plane's per-spec streams, the
// chaos fuzzer's per-rank and signal streams and the supervisor's
// per-entity restart jitter.
func SplitMix(seed, lane uint64) uint64 {
	z := seed + lane*gamma
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: RNG.Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Duration returns a uniform Duration in [lo, hi].
func (r *RNG) Duration(lo, hi Duration) Duration {
	if hi <= lo {
		return lo
	}
	return lo + Duration(r.Uint64()%uint64(hi-lo+1))
}
