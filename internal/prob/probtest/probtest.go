// Package probtest holds reference distributions and distances that tests
// of several packages build inputs and oracles from. Only _test files
// import it, so it never ships in a binary.
package probtest

import (
	"fmt"
	"math"

	"broadcastic/internal/prob"
)

// Uniform returns the uniform distribution over size outcomes.
func Uniform(size int) (prob.Dist, error) {
	if size <= 0 {
		return prob.Dist{}, fmt.Errorf("prob: non-positive support size %d", size)
	}
	w := make([]float64, size)
	for i := range w {
		w[i] = 1
	}
	return prob.Normalize(w)
}

// TV returns the total-variation distance between d and e. The supports
// must have equal size.
func TV(d, e prob.Dist) (float64, error) {
	if d.Size() != e.Size() {
		return 0, fmt.Errorf("prob: TV support mismatch %d vs %d", d.Size(), e.Size())
	}
	sum := 0.0
	for i := 0; i < d.Size(); i++ {
		sum += math.Abs(d.P(i) - e.P(i))
	}
	return sum / 2, nil
}

// BinomialPMF returns the distribution of a Binomial(n, p) random variable
// over {0, ..., n}. Computed in log space to stay stable for large n.
func BinomialPMF(n int, p float64) (prob.Dist, error) {
	if n < 0 {
		return prob.Dist{}, fmt.Errorf("prob: negative binomial n=%d", n)
	}
	if p < 0 || p > 1 || math.IsNaN(p) {
		return prob.Dist{}, fmt.Errorf("prob: binomial parameter %v outside [0,1]", p)
	}
	probs := make([]float64, n+1)
	if p == 0 {
		probs[0] = 1
		return prob.NewDist(probs)
	}
	if p == 1 {
		probs[n] = 1
		return prob.NewDist(probs)
	}
	lp, lq := math.Log(p), math.Log1p(-p)
	for k := 0; k <= n; k++ {
		probs[k] = math.Exp(logChoose(n, k) + float64(k)*lp + float64(n-k)*lq)
	}
	return prob.Normalize(probs)
}

// logChoose returns log C(n, k) via lgamma.
func logChoose(n, k int) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	ln1, _ := math.Lgamma(float64(n + 1))
	lk, _ := math.Lgamma(float64(k + 1))
	lnk, _ := math.Lgamma(float64(n - k + 1))
	return ln1 - lk - lnk
}
