// Package prob implements finite probability distributions and sampling.
//
// Distributions over small finite supports appear throughout the
// reproduction: per-player message distributions (Lemma 3's q-factors are
// maintained from them), the hard input distribution μ of Section 4.1, the
// external observer's prior ν and the sender's posterior η in the Lemma 7
// rejection sampler, and the transcript distributions π_2 and π_3. The
// package keeps distributions as explicit probability vectors so that exact
// computations (normalization, marginals, divergences via package info) stay
// numerically transparent.
package prob

import (
	"fmt"
	"math"
	"sync"

	"broadcastic/internal/rng"
)

// Dist is a probability distribution over the outcomes 0..len(p)-1.
// Probabilities are non-negative and sum to 1 up to a small tolerance.
//
// Dist is a value type; the cdf pointer travels with every copy, so the
// lazily built sampling table is shared by all copies of a distribution
// and built at most once.
type Dist struct {
	p   []float64
	cdf *cdfCache
}

// cdfMinSize is the smallest support for which a Dist carries a cached
// cumulative-distribution table. The binary search's data-dependent
// branch mispredicts roughly half the time, so despite doing O(log n)
// work it only overtakes the predictable early-exit scan around support
// ~100 on uniform inputs (and later on the skewed, early-mass
// distributions the protocols actually sample); below the threshold the
// scan is kept and the Dist does not pay even the one-word holder.
const cdfMinSize = 128

// cdfCache holds the lazily built prefix-sum table used by Sample on
// larger supports. cum[i] is the identical in-order partial sum the
// linear scan computes, so binary search over it selects the exact same
// outcome for the same uniform draw. last is the largest outcome with
// positive mass — the linear scan's floating-point-slack fallback.
type cdfCache struct {
	once sync.Once
	p    []float64
	cum  []float64
	last int
}

func (c *cdfCache) build() {
	cum := make([]float64, len(c.p))
	acc := 0.0
	last := len(c.p) - 1
	for i, v := range c.p {
		acc += v
		cum[i] = acc
		if v > 0 {
			last = i
		}
	}
	c.cum = cum
	c.last = last
}

// distFromOwned wraps a probability vector the caller will not retain,
// attaching the sampler cache holder for supports large enough to benefit.
func distFromOwned(p []float64) Dist {
	d := Dist{p: p}
	if len(p) >= cdfMinSize {
		d.cdf = &cdfCache{p: p}
	}
	return d
}

// normTolerance bounds the accepted deviation of a probability vector's sum
// from 1. Anything worse indicates a logic error upstream.
const normTolerance = 1e-9

// NewDist validates and wraps a probability vector. The slice is copied.
func NewDist(p []float64) (Dist, error) {
	if len(p) == 0 {
		return Dist{}, fmt.Errorf("prob: empty distribution")
	}
	sum := 0.0
	for i, v := range p {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return Dist{}, fmt.Errorf("prob: invalid probability p[%d]=%v", i, v)
		}
		sum += v
	}
	if math.Abs(sum-1) > normTolerance {
		return Dist{}, fmt.Errorf("prob: probabilities sum to %v, want 1", sum)
	}
	q := make([]float64, len(p))
	copy(q, p)
	return distFromOwned(q), nil
}

// Normalize builds a distribution proportional to the given non-negative
// weights. At least one weight must be positive.
func Normalize(w []float64) (Dist, error) {
	if len(w) == 0 {
		return Dist{}, fmt.Errorf("prob: empty weight vector")
	}
	sum := 0.0
	for i, v := range w {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return Dist{}, fmt.Errorf("prob: invalid weight w[%d]=%v", i, v)
		}
		sum += v
	}
	if sum <= 0 {
		return Dist{}, fmt.Errorf("prob: all weights are zero")
	}
	p := make([]float64, len(w))
	for i, v := range w {
		p[i] = v / sum
	}
	return distFromOwned(p), nil
}

// Point returns the deterministic distribution concentrated on outcome x
// over a support of the given size.
func Point(size, x int) (Dist, error) {
	if size <= 0 {
		return Dist{}, fmt.Errorf("prob: non-positive support size %d", size)
	}
	if x < 0 || x >= size {
		return Dist{}, fmt.Errorf("prob: point mass %d outside [0,%d)", x, size)
	}
	p := make([]float64, size)
	p[x] = 1
	return distFromOwned(p), nil
}

// Bernoulli returns the distribution on {0, 1} with P(1) = p.
func Bernoulli(p float64) (Dist, error) {
	if p < 0 || p > 1 || math.IsNaN(p) {
		return Dist{}, fmt.Errorf("prob: Bernoulli parameter %v outside [0,1]", p)
	}
	return distFromOwned([]float64{1 - p, p}), nil
}

// Size returns the support size.
func (d Dist) Size() int { return len(d.p) }

// P returns the probability of outcome x (0 outside the support).
func (d Dist) P(x int) float64 {
	if x < 0 || x >= len(d.p) {
		return 0
	}
	return d.p[x]
}

// Probs returns a copy of the probability vector.
func (d Dist) Probs() []float64 {
	out := make([]float64, len(d.p))
	copy(out, d.p)
	return out
}

// ProbsInto appends the probability vector to dst[:0] and returns the
// result, reusing dst's backing array when it has capacity. It is the
// allocation-free counterpart of Probs for hot loops that own a scratch
// slice.
func (d Dist) ProbsInto(dst []float64) []float64 {
	return append(dst[:0], d.p...)
}

// Sample draws one outcome using src. Distributions with at least
// cdfMinSize outcomes sample through a cached prefix-sum table (built on
// first use); the table stores the identical in-order partial sums the
// linear scan accumulates, so both paths return the same outcome for the
// same uniform draw.
func (d Dist) Sample(src *rng.Source) int {
	return d.sampleIndex(src.Float64())
}

// SampleU is the deterministic half of Sample: it maps a caller-supplied
// uniform draw u ∈ [0,1) to an outcome through exactly the code path
// Sample uses (prefix-sum table when cached, linear scan otherwise).
// Callers that manage their own draw stream — converting raw outputs via
// rng.U01 — get outcomes bit-identical to Sample on the same stream; the
// compiled-IR sampler is pinned against it.
func (d Dist) SampleU(u float64) int {
	return d.sampleIndex(u)
}

// sampleIndex maps a uniform draw u ∈ [0,1) to an outcome.
func (d Dist) sampleIndex(u float64) int {
	if c := d.cdf; c != nil {
		c.once.Do(c.build)
		// Branchless lower bound: find the smallest i with u < cum[i].
		// The invariant is that the answer (if any) lies in [base,
		// base+n); when the probe is ≤ u the whole left half is
		// excluded, otherwise the range merely shrinks — either way n
		// strictly decreases, and the single data-dependent branch
		// compiles to a conditional move.
		cum := c.cum
		base, n := 0, len(cum)
		for n > 1 {
			half := n >> 1
			if cum[base+half-1] <= u {
				base += half
			}
			n -= half
		}
		if u < cum[base] {
			return base
		}
		// u ≥ total mass (floating-point slack): same fallback as the
		// linear scan, precomputed at table-build time.
		return c.last
	}
	return d.sampleIndexLinear(u)
}

// sampleIndexLinear is the original scan kept as the small-support path
// and as the reference the cached path is pinned against in tests.
func (d Dist) sampleIndexLinear(u float64) int {
	acc := 0.0
	for i, v := range d.p {
		acc += v
		if u < acc {
			return i
		}
	}
	// Floating-point slack: return the last outcome with positive mass.
	for i := len(d.p) - 1; i >= 0; i-- {
		if d.p[i] > 0 {
			return i
		}
	}
	return len(d.p) - 1
}
