// Package rng provides a small, deterministic, splittable pseudo-random
// number generator used throughout the repository.
//
// Reproducibility is a first-class requirement for the experiments: every
// protocol execution, every sampled input, and every Monte-Carlo estimate
// must be replayable bit-for-bit from a seed. The broadcast model also
// distinguishes *public* randomness (shared by all players, e.g. the common
// sample points of the Lemma 7 rejection sampler) from *private* randomness
// (per player). Source.Split yields independent child streams so that the
// two kinds of randomness, and the streams of different players, never
// interfere: drawing more values from one stream does not perturb another.
//
// The core generator is SplitMix64 (Steele, Lea, Flood 2014), chosen because
// it is tiny, fast, passes standard statistical batteries at the scale we
// use it, and splits cleanly by hashing a child index into a fresh seed.
package rng

import "math"

// Source is a deterministic stream of pseudo-random values.
//
// A Source is NOT safe for concurrent use; give each goroutine its own
// stream via Split.
type Source struct {
	state uint64
}

// New returns a Source seeded with seed. Two Sources built from the same
// seed produce identical streams.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// gamma is the SplitMix64 state increment; gammaInv is its multiplicative
// inverse mod 2^64 (gamma is odd, hence invertible). Because every output
// advances the state by exactly gamma, the number of draws between two
// observed states is (s2-s1)*gammaInv — which is what lets Mark/DrawsSince
// count draws with zero bookkeeping on the generation path.
const (
	gamma    = 0x9e3779b97f4a7c15
	gammaInv = 0xf1de83e19937733d
)

// splitmix64 advances a state word and returns the next output.
func splitmix64(state *uint64) uint64 {
	*state += gamma
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	return splitmix64(&s.state)
}

// Uint64s fills dst with the next len(dst) outputs of the stream. The
// result is identical to calling Uint64 once per element; the batch form
// exists so hot loops can amortize the pointer dereference and bounds
// checks of per-draw calls. The state advances by exactly len(dst) draws,
// so Mark/DrawsSince accounting still reconciles: a batch fill of n words
// counts as n draws.
func (s *Source) Uint64s(dst []uint64) {
	st := s.state
	for i := range dst {
		st += gamma
		z := st
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		dst[i] = z ^ (z >> 31)
	}
	s.state = st
}

// Mark is an opaque stream position captured by Source.Mark.
type Mark struct {
	state uint64
}

// Mark captures the stream's current position for later draw accounting.
func (s *Source) Mark() Mark { return Mark{state: s.state} }

// DrawsSince returns how many raw 64-bit outputs the stream has produced
// since m was captured. Every generator method ultimately consumes Uint64
// outputs (some, like Intn's rejection loop, a variable number), and each
// output advances the state by the fixed odd constant gamma, so the count
// is recovered arithmetically — the generation path itself keeps no
// counter and pays nothing. Split/SplitN calls also consume one output
// each, and are counted as such.
func (s *Source) DrawsSince(m Mark) uint64 {
	return (s.state - m.state) * gammaInv
}

// Split derives an independent child stream identified by index. The child
// stream is a pure function of (parent seed, consumed outputs, index), so
// callers typically Split immediately after New with fixed indices to get
// stable, named sub-streams.
func (s *Source) Split(index uint64) *Source {
	// Mix the child index through an independent SplitMix round so that
	// nearby indices yield unrelated seeds.
	st := s.Uint64() ^ (index + 0x632be59bd9b4e019)
	_ = splitmix64(&st)
	return &Source{state: st}
}

// SplitN derives n independent child streams, identical to calling
// Split(0), Split(1), …, Split(n-1) in order. This is the seed-derivation
// idiom behind the deterministic parallel engine: the derivation itself is
// serial (it consumes n parent outputs in a fixed order), after which each
// child stream can be consumed by a different goroutine without any
// cross-stream interference — so parallel results cannot depend on worker
// count or scheduling.
func (s *Source) SplitN(n int) []*Source {
	if n <= 0 {
		return nil
	}
	out := make([]*Source, n)
	for i := range out {
		out[i] = s.Split(uint64(i))
	}
	return out
}

// Lookahead returns the (n+1)-th upcoming raw 64-bit output without
// advancing the stream: Lookahead(0) is the value the next Uint64 call
// would return, Lookahead(1) the one after, and so on. Because every
// output advances the state by the fixed constant gamma, the j-th
// upcoming output is a pure function of state + (j+1)*gamma, so peeking
// is a single multiply-add plus the finalizer. The compiled-IR executor
// uses this to consume draws lazily (only the positions a sample actually
// needs) and then reconcile the stream with one Skip, staying draw-aligned
// with the scalar path.
func (s *Source) Lookahead(n uint64) uint64 {
	st := s.state + (n+1)*gamma
	z := st
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Skip advances the stream past n raw 64-bit outputs in O(1), leaving the
// state exactly where n Uint64 calls would have left it (each output
// advances the state by the fixed constant gamma, so skipping is a single
// multiply-add). Mark/DrawsSince accounting counts the skipped outputs as
// drawn. The compiled-IR executor uses Skip to stay draw-aligned with
// scalar execution when the skipped values provably cannot influence the
// result (draws it never needed, such as point-mass message draws, which
// return the same symbol for every uniform).
func (s *Source) Skip(n uint64) {
	s.state += gamma * n
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (s *Source) Float64() float64 {
	return U01(s.Uint64())
}

// U01 maps one raw 64-bit output to the uniform [0, 1) value Float64
// derives from it. Batch consumers that prefetch raw outputs with Uint64s
// convert them through U01 to obtain the exact floats a sequence of
// Float64 calls would have produced.
func U01(w uint64) float64 {
	return float64(w>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics only on n <= 0, which is
// always a programming error at the call site (never data-dependent).
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	// Lemire's multiply-shift rejection method: unbiased and branch-light.
	bound := uint64(n)
	for {
		v := s.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aLo*bHi + (aLo*bLo)>>32
	w1 := t & mask
	w2 := t >> 32
	w1 += aHi * bLo
	hi = aHi*bHi + w2 + (w1 >> 32)
	lo = a * b
	return hi, lo
}

// Bernoulli returns true with probability p (clamped to [0,1]).
func (s *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// NormFloat64 returns a standard normal variate (Box–Muller, polar form).
// Used only for statistical utilities in the experiment harness.
func (s *Source) NormFloat64() float64 {
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q > 0 && q < 1 {
			return u * math.Sqrt(-2*math.Log(q)/q)
		}
	}
}

// SampleWithoutReplacement returns a uniformly random size-m subset of
// [0, n), in increasing order. It runs in O(m) expected time using Floyd's
// algorithm. Returns nil if m <= 0; if m >= n it returns all of [0, n).
func (s *Source) SampleWithoutReplacement(n, m int) []int {
	if m <= 0 || n <= 0 {
		return nil
	}
	if m >= n {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	chosen := make(map[int]struct{}, m)
	for j := n - m; j < n; j++ {
		t := s.Intn(j + 1)
		if _, ok := chosen[t]; ok {
			t = j
		}
		chosen[t] = struct{}{}
	}
	out := make([]int, 0, m)
	for v := range chosen {
		out = append(out, v)
	}
	sortInts(out)
	return out
}

// sortInts is a small insertion/heap hybrid avoiding the sort package's
// interface overhead for the tiny slices we produce here.
func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		v := xs[i]
		j := i - 1
		for j >= 0 && xs[j] > v {
			xs[j+1] = xs[j]
			j--
		}
		xs[j+1] = v
	}
}
