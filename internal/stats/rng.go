// Package stats provides the deterministic random-number plumbing,
// probability distributions, histograms and descriptive statistics used
// by the traffic generators, the reshaping schedulers and the
// evaluation harness.
//
// Everything in this package is seeded explicitly. Experiments own
// their seeds, so every table and figure in the paper reproduction is
// regenerated bit-identically from the same inputs.
package stats

// RNG is a small, fast, deterministic pseudo-random generator
// (xoshiro256** seeded through splitmix64). We implement it directly
// rather than relying on math/rand so that the generated traces are
// stable across Go releases: the evaluation tables (README
// "Reproducibility") are only meaningful if the workload that
// produced them can be regenerated exactly.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from seed. Distinct seeds yield
// statistically independent streams.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.Reseed(seed)
	return r
}

// Reseed reinitializes r in place to the exact state NewRNG(seed)
// produces. It exists so hot paths that re-train with a fresh seed on
// every call (the SVM trainer's scratch) can recycle one generator
// instead of allocating a new one per run.
func (r *RNG) Reseed(seed uint64) {
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	// A zero state would be absorbing; the splitmix expansion above
	// cannot produce all-zero output for any seed, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
}

// Split derives an independent child generator, advancing the parent
// by one draw. It is used to give each application trace, each
// scheduler and each classifier its own stream so that adding one
// more draw in one component does not perturb any other component.
//
// Because Split mutates the parent, the k-th child depends on how
// many splits happened before it — fine inside one sequential
// function, wrong for sharded work. Use SplitAt for that.
func (r *RNG) Split() *RNG {
	return r.SplitInto(&RNG{})
}

// SplitInto is Split writing the child stream into caller-owned
// storage: it reseeds child to the exact state the next Split would
// return, advancing the parent identically, and allocates nothing.
func (r *RNG) SplitInto(child *RNG) *RNG {
	child.Reseed(r.Uint64() ^ 0xa5a5a5a5a5a5a5a5)
	return child
}

// SplitAt derives the shard-th child stream as a pure function of the
// parent's current state and the shard index: it does not advance the
// parent, and distinct shard indices yield statistically independent
// streams. This is the substrate of the concurrent experiment engine
// — every (application × strategy × window) shard draws from its own
// SplitAt stream, so a run sharded over N workers is bit-identical to
// a serial run with the same master seed, regardless of the order in
// which shards execute.
func (r *RNG) SplitAt(shard uint64) *RNG {
	// Collapse the 256-bit state to one word without touching it,
	// then let NewRNG's splitmix64 expansion decorrelate adjacent
	// shard indices.
	h := r.s[0] ^ rotl(r.s[1], 13) ^ rotl(r.s[2], 29) ^ rotl(r.s[3], 41)
	return NewRNG(h ^ (shard+1)*0x9e3779b97f4a7c15)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// State returns the generator's 256-bit internal state, for
// checkpointing: a generator restored with RestoreState continues the
// exact draw sequence this one would have produced. The state is never
// all-zero (Reseed guards against the absorbing state), so callers
// persisting it can use an all-zero record to mean "absent".
func (r *RNG) State() [4]uint64 { return r.s }

// RestoreState reinitializes r to a state previously returned by
// State. The caller must not pass an all-zero state (it would be
// absorbing); deserializers are expected to validate before calling.
func (r *RNG) RestoreState(s [4]uint64) {
	if s[0]|s[1]|s[2]|s[3] == 0 {
		panic("stats: RestoreState with all-zero state")
	}
	r.s = s
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform sample in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform sample in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// IntRange returns a uniform sample in [lo, hi]. It panics if hi < lo.
func (r *RNG) IntRange(lo, hi int) int {
	if hi < lo {
		panic("stats: IntRange with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	return r.PermInto(make([]int, n))
}

// PermInto fills buf with a random permutation of [0, len(buf)) and
// returns it. It draws exactly the values Perm(len(buf)) would — the
// same inside-out Fisher–Yates over the same Intn stream — so per-epoch
// shuffle loops can reuse one buffer without moving a single result
// bit. buf's prior contents never leak: every slot is overwritten
// before any stale value can be read.
func (r *RNG) PermInto(buf []int) []int {
	for i := range buf {
		j := r.Intn(i + 1)
		buf[i] = buf[j]
		buf[j] = i
	}
	return buf
}

// Shuffle pseudo-randomly permutes n elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// NormFloat64 returns a standard normal sample (Marsaglia polar method).
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * sqrt(-2*ln(s)/s)
		}
	}
}

// ExpFloat64 returns an exponential sample with rate 1.
func (r *RNG) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -ln(u)
		}
	}
}
