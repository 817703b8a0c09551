// Package info implements the information-theoretic quantities the paper's
// lower bounds are phrased in: mutual information and Kullback–Leibler
// divergence (Definitions 3 and 4); Shannon entropy (Definition 1) is an
// oracle in the package's tests. All quantities are in bits (log base 2),
// matching the paper's convention that one transmitted bit reveals at most
// one bit of information.
package info

import (
	"fmt"
	"math"

	"broadcastic/internal/prob"
)

// log2 computes log base 2, with log2(0) treated by callers via the
// 0·log 0 = 0 convention.
func log2(x float64) float64 { return math.Log2(x) }

// KL returns D(post ‖ prior) (Definition 4), in bits. It is +Inf when post
// puts mass where prior does not (absolute-continuity violation), and an
// error when the supports have different sizes.
func KL(post, prior prob.Dist) (float64, error) {
	if post.Size() != prior.Size() {
		return 0, fmt.Errorf("info: KL support mismatch %d vs %d", post.Size(), prior.Size())
	}
	d := 0.0
	for x := 0; x < post.Size(); x++ {
		p, q := post.P(x), prior.P(x)
		if p == 0 {
			continue // 0·log 0 = 0 convention
		}
		if q == 0 {
			return math.Inf(1), nil
		}
		d += p * log2(p/q)
	}
	// Clamp tiny negative values caused by rounding; KL is non-negative.
	if d < 0 && d > -1e-12 {
		d = 0
	}
	return d, nil
}

// KLBernoulli returns D(Bern(p) ‖ Bern(q)) in bits without allocating
// distributions. This is the inner quantity of the paper's Eq. (3): the
// divergence between the posterior and prior of a single player's input bit.
func KLBernoulli(p, q float64) float64 {
	if p < 0 || p > 1 || q < 0 || q > 1 {
		return math.NaN()
	}
	d := 0.0
	if p > 0 {
		if q == 0 {
			return math.Inf(1)
		}
		d += p * log2(p/q)
	}
	if p < 1 {
		if q == 1 {
			return math.Inf(1)
		}
		d += (1 - p) * log2((1-p)/(1-q))
	}
	if d < 0 && d > -1e-12 {
		d = 0
	}
	return d
}

// Joint is a joint probability table over a pair (X, Y) with finite
// supports. It supports the marginal / conditional decompositions used to
// compute mutual information exactly.
type Joint struct {
	nx, ny int
	p      []float64 // row-major: p[x*ny+y]
}

// EmptyJoint returns an all-zero accumulator table; fill it with Add and
// finish with NormalizeInPlace.
func EmptyJoint(nx, ny int) (*Joint, error) {
	if nx <= 0 || ny <= 0 {
		return nil, fmt.Errorf("info: non-positive joint dimensions %dx%d", nx, ny)
	}
	return &Joint{nx: nx, ny: ny, p: make([]float64, nx*ny)}, nil
}

// Add accumulates weight w on the cell (x, y).
func (j *Joint) Add(x, y int, w float64) error {
	if x < 0 || x >= j.nx || y < 0 || y >= j.ny {
		return fmt.Errorf("info: joint cell (%d,%d) outside %dx%d", x, y, j.nx, j.ny)
	}
	if w < 0 {
		return fmt.Errorf("info: negative weight %v", w)
	}
	j.p[x*j.ny+y] += w
	return nil
}

// NormalizeInPlace rescales the table to total mass 1.
func (j *Joint) NormalizeInPlace() error {
	sum := 0.0
	for _, v := range j.p {
		sum += v
	}
	if sum <= 0 {
		return fmt.Errorf("info: joint table has zero mass")
	}
	for i := range j.p {
		j.p[i] /= sum
	}
	return nil
}

// MarginalX returns the marginal distribution of X.
func (j *Joint) MarginalX() (prob.Dist, error) {
	w := make([]float64, j.nx)
	for x := 0; x < j.nx; x++ {
		for y := 0; y < j.ny; y++ {
			w[x] += j.p[x*j.ny+y]
		}
	}
	return prob.Normalize(w)
}

// MarginalY returns the marginal distribution of Y.
func (j *Joint) MarginalY() (prob.Dist, error) {
	w := make([]float64, j.ny)
	for y := 0; y < j.ny; y++ {
		for x := 0; x < j.nx; x++ {
			w[y] += j.p[x*j.ny+y]
		}
	}
	return prob.Normalize(w)
}

// MutualInformation returns I(X; Y) in bits (Definition 3), computed as
// Σ_{x,y} p(x,y) log( p(x,y) / (p(x)p(y)) ).
func (j *Joint) MutualInformation() (float64, error) {
	mx, err := j.MarginalX()
	if err != nil {
		return 0, err
	}
	my, err := j.MarginalY()
	if err != nil {
		return 0, err
	}
	mi := 0.0
	for x := 0; x < j.nx; x++ {
		for y := 0; y < j.ny; y++ {
			pxy := j.p[x*j.ny+y]
			if pxy <= 0 {
				continue
			}
			mi += pxy * log2(pxy/(mx.P(x)*my.P(y)))
		}
	}
	if mi < 0 && mi > -1e-10 {
		mi = 0
	}
	return mi, nil
}

// PointedPosteriorDivergenceLB returns the paper's Eq. (4) lower bound
// p·log2(k) − 1 on the divergence between a posterior Bern(zero-prob = p)
// and the prior Bern(zero-prob = 1/k). Experiment E12 checks the exact
// divergence dominates this bound.
func PointedPosteriorDivergenceLB(p float64, k int) float64 {
	return p*log2(float64(k)) - 1
}
