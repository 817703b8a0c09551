// Package dist implements the input distributions the paper's lower bounds
// are proved against.
//
// The central object is the Section 4.1 hard distribution μ for AND_k: pick
// a uniformly random special player Z ∈ [k], force X_Z = 0, and give every
// other player 0 independently with probability 1/k. Conditioned on Z the
// inputs are independent (condition (2) of Lemma 1) and every input in the
// support satisfies AND = 0 (condition (1)).
//
// The package also provides μ^n (the n-fold product used for DISJ via the
// direct-sum Lemma 1), the slices X_c of inputs with exactly c zeroes used
// by the Lemma 5 analysis, and the simple distribution of the Lemma 6
// Ω(k) communication bound.
//
// Types here structurally satisfy core.Prior so the information-cost engine
// can consume them without an import cycle.
package dist

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"broadcastic/internal/prob"
	"broadcastic/internal/rng"
)

// Mu is the hard distribution for AND_k from Section 4.1.
type Mu struct {
	k int
	// Cached per-player conditionals (prob.Dist is immutable, so sharing
	// is safe); PlayerDist sits on the hot path of the Monte-Carlo
	// information-cost estimators.
	special prob.Dist // point mass on 0, for the special player
	regular prob.Dist // Bernoulli(1 − 1/k), for everyone else
}

// NewMu returns μ for k players; k must be at least 2.
func NewMu(k int) (*Mu, error) {
	if k < 2 {
		return nil, fmt.Errorf("dist: μ requires k >= 2, got %d", k)
	}
	special, err := prob.Point(2, 0)
	if err != nil {
		return nil, err
	}
	regular, err := prob.Bernoulli(1 - 1/float64(k))
	if err != nil {
		return nil, err
	}
	return &Mu{k: k, special: special, regular: regular}, nil
}

// NumPlayers returns k.
func (m *Mu) NumPlayers() int { return m.k }

// InputSize returns 2: each player holds one bit.
func (m *Mu) InputSize() int { return 2 }

// AuxSize returns k: the auxiliary variable D is the special player Z.
func (m *Mu) AuxSize() int { return m.k }

// AuxProb returns Pr[Z = z] = 1/k.
func (m *Mu) AuxProb(z int) float64 {
	if z < 0 || z >= m.k {
		return 0
	}
	return 1 / float64(m.k)
}

// IRKey names the prior for the compiled-IR program cache (see
// internal/ir.Keyer): μ is fully determined by k.
func (m *Mu) IRKey() string { return "dist.mu/" + strconv.Itoa(m.k) }

// PlayerDist returns the distribution of X_i conditioned on Z = z:
// a point mass on 0 for the special player, Bernoulli(1 − 1/k) otherwise.
func (m *Mu) PlayerDist(z, player int) (prob.Dist, error) {
	if z < 0 || z >= m.k || player < 0 || player >= m.k {
		return prob.Dist{}, fmt.Errorf("dist: PlayerDist(z=%d, player=%d) outside [0,%d)", z, player, m.k)
	}
	if player == z {
		return m.special, nil
	}
	return m.regular, nil // P(X=1) = 1 - 1/k
}

// Sample draws (z, x) ~ μ. The returned x has one entry in {0,1} per player.
func (m *Mu) Sample(src *rng.Source) (z int, x []int) {
	z = src.Intn(m.k)
	x = make([]int, m.k)
	for i := range x {
		switch {
		case i == z:
			x[i] = 0
		case src.Bernoulli(1 / float64(m.k)):
			x[i] = 0
		default:
			x[i] = 1
		}
	}
	return z, x
}

// ProbGivenZ returns Pr[X = x | Z = z] under μ.
func (m *Mu) ProbGivenZ(x []int, z int) (float64, error) {
	if len(x) != m.k {
		return 0, fmt.Errorf("dist: input has %d entries, want %d", len(x), m.k)
	}
	if z < 0 || z >= m.k {
		return 0, fmt.Errorf("dist: z=%d outside [0,%d)", z, m.k)
	}
	p := 1.0
	for i, v := range x {
		if v != 0 && v != 1 {
			return 0, fmt.Errorf("dist: non-binary input x[%d]=%d", i, v)
		}
		if i == z {
			if v != 0 {
				return 0, nil
			}
			continue
		}
		if v == 0 {
			p *= 1 / float64(m.k)
		} else {
			p *= 1 - 1/float64(m.k)
		}
	}
	return p, nil
}

// Prob returns the marginal Pr[X = x] = (1/k) Σ_z Pr[X = x | Z = z].
func (m *Mu) Prob(x []int) (float64, error) {
	total := 0.0
	for z := 0; z < m.k; z++ {
		p, err := m.ProbGivenZ(x, z)
		if err != nil {
			return 0, err
		}
		total += p / float64(m.k)
	}
	return total, nil
}

// CountZeros returns |{i : x_i = 0}|, the slice index c of X_c.
func CountZeros(x []int) int {
	c := 0
	for _, v := range x {
		if v == 0 {
			c++
		}
	}
	return c
}

// ProbSlice returns Pr[X ∈ X_c] under μ: the probability that exactly c
// players receive zero. The special player always has zero, so the count is
// 1 + Binomial(k−1, 1/k).
func (m *Mu) ProbSlice(c int) (float64, error) {
	if c < 0 || c > m.k {
		return 0, fmt.Errorf("dist: slice count %d outside [0,%d]", c, m.k)
	}
	if c == 0 {
		return 0, nil // X always contains at least one zero under μ
	}
	binom, err := prob.BinomialPMF(m.k-1, 1/float64(m.k))
	if err != nil {
		return 0, err
	}
	return binom.P(c - 1), nil
}

// SampleFromSlice draws a uniform input from X_c (exactly c zeroes, the
// conditional of μ given the slice): by symmetry this is a uniformly random
// size-c zero set. Requires 1 <= c <= k.
func (m *Mu) SampleFromSlice(src *rng.Source, c int) ([]int, error) {
	if c < 1 || c > m.k {
		return nil, fmt.Errorf("dist: slice count %d outside [1,%d]", c, m.k)
	}
	zeroSet := src.SampleWithoutReplacement(m.k, c)
	x := make([]int, m.k)
	for i := range x {
		x[i] = 1
	}
	for _, i := range zeroSet {
		x[i] = 0
	}
	return x, nil
}

// MuN is the n-fold product distribution μ^n used for DISJ_{n,k} (Lemma 1):
// each coordinate j ∈ [n] is an independent draw from μ with its own
// auxiliary variable Z_j.
type MuN struct {
	mu *Mu
	n  int
}

// NewMuN returns μ^n over k players and n coordinates.
func NewMuN(k, n int) (*MuN, error) {
	mu, err := NewMu(k)
	if err != nil {
		return nil, err
	}
	if n < 1 {
		return nil, fmt.Errorf("dist: μ^n requires n >= 1, got %d", n)
	}
	return &MuN{mu: mu, n: n}, nil
}

// NumPlayers returns k.
func (m *MuN) NumPlayers() int { return m.mu.k }

// NumCoordinates returns n.
func (m *MuN) NumCoordinates() int { return m.n }

// InputSize returns 2^n: each player's input is an n-bit vector, encoded as
// an integer with coordinate j in bit j.
func (m *MuN) InputSize() int { return 1 << uint(m.n) }

// AuxSize returns k^n: the auxiliary variable is the vector (Z_1,...,Z_n),
// encoded in base k with Z_1 least significant.
func (m *MuN) AuxSize() int {
	s := 1
	for j := 0; j < m.n; j++ {
		s *= m.mu.k
	}
	return s
}

// AuxProb returns the uniform probability 1/k^n of each auxiliary vector.
func (m *MuN) AuxProb(z int) float64 {
	if z < 0 || z >= m.AuxSize() {
		return 0
	}
	return 1 / float64(m.AuxSize())
}

// IRKey names the prior for the compiled-IR program cache: μ^n is fully
// determined by (k, n).
func (m *MuN) IRKey() string {
	return "dist.mun/" + strconv.Itoa(m.mu.k) + "," + strconv.Itoa(m.n)
}

// PlayerDist returns the distribution of player i's n-bit input conditioned
// on the auxiliary vector z (base-k encoded). Coordinates are independent:
// coordinate j is forced to 0 when Z_j = i, else Bernoulli(1 − 1/k).
func (m *MuN) PlayerDist(z, player int) (prob.Dist, error) {
	if z < 0 || z >= m.AuxSize() || player < 0 || player >= m.mu.k {
		return prob.Dist{}, fmt.Errorf("dist: MuN PlayerDist(z=%d, player=%d) out of range", z, player)
	}
	k := m.mu.k
	// Per-coordinate probability that the bit is 1.
	pOne := make([]float64, m.n)
	zz := z
	for j := 0; j < m.n; j++ {
		zj := zz % k
		zz /= k
		if zj == player {
			pOne[j] = 0
		} else {
			pOne[j] = 1 - 1/float64(k)
		}
	}
	size := 1 << uint(m.n)
	p := make([]float64, size)
	for v := 0; v < size; v++ {
		pr := 1.0
		for j := 0; j < m.n; j++ {
			if v>>uint(j)&1 == 1 {
				pr *= pOne[j]
			} else {
				pr *= 1 - pOne[j]
			}
		}
		p[v] = pr
	}
	return prob.NewDist(p)
}

// Sample draws (zs, inputs) ~ μ^n: zs[j] is the special player of
// coordinate j, and inputs[i] is player i's n-bit vector with coordinate j
// in bit position j.
func (m *MuN) Sample(src *rng.Source) (zs []int, inputs []uint64, err error) {
	if m.n > 63 {
		return nil, nil, fmt.Errorf("dist: MuN.Sample supports n <= 63, got %d", m.n)
	}
	zs = make([]int, m.n)
	inputs = make([]uint64, m.mu.k)
	for j := 0; j < m.n; j++ {
		z, x := m.mu.Sample(src)
		zs[j] = z
		for i, v := range x {
			if v == 1 {
				inputs[i] |= 1 << uint(j)
			}
		}
	}
	return zs, inputs, nil
}

// Lemma6Dist is the input distribution from the proof of Lemma 6 (the Ω(k)
// communication bound): with probability εPrime all players receive 1;
// otherwise one uniformly random player receives 0 and the rest receive 1.
type Lemma6Dist struct {
	k        int
	epsPrime float64
}

// NewLemma6Dist validates parameters; εPrime must lie in (0, 1).
func NewLemma6Dist(k int, epsPrime float64) (*Lemma6Dist, error) {
	if k < 1 {
		return nil, fmt.Errorf("dist: Lemma6Dist requires k >= 1, got %d", k)
	}
	if epsPrime <= 0 || epsPrime >= 1 || math.IsNaN(epsPrime) {
		return nil, fmt.Errorf("dist: εPrime = %v outside (0,1)", epsPrime)
	}
	return &Lemma6Dist{k: k, epsPrime: epsPrime}, nil
}

// NumPlayers returns k.
func (d *Lemma6Dist) NumPlayers() int { return d.k }

// EpsPrime returns the all-ones probability ε′.
func (d *Lemma6Dist) EpsPrime() float64 { return d.epsPrime }

// Sample draws an input: all-ones with probability ε′, else a single
// uniformly random zero. The zero position is −1 for the all-ones input.
func (d *Lemma6Dist) Sample(src *rng.Source) (x []int, zeroAt int) {
	zeroAt = d.SampleZero(src)
	x = make([]int, d.k)
	for i := range x {
		x[i] = 1
	}
	if zeroAt >= 0 {
		x[zeroAt] = 0
	}
	return x, zeroAt
}

// SampleZero draws only the zero position of a Sample draw (−1 for the
// all-ones input), consuming the stream exactly as Sample does without
// allocating the input. An input is determined by its zero position, so
// this is all E6's trial loop needs.
func (d *Lemma6Dist) SampleZero(src *rng.Source) int {
	if src.Bernoulli(d.epsPrime) {
		return -1
	}
	return src.Intn(d.k)
}

// Prob returns the probability of input x under the distribution.
func (d *Lemma6Dist) Prob(x []int) (float64, error) {
	if len(x) != d.k {
		return 0, fmt.Errorf("dist: input has %d entries, want %d", len(x), d.k)
	}
	zeros := CountZeros(x)
	switch zeros {
	case 0:
		return d.epsPrime, nil
	case 1:
		return (1 - d.epsPrime) / float64(d.k), nil
	default:
		return 0, nil
	}
}

// ProductPrior is a generic product distribution with a trivial auxiliary
// variable ("empty variable D", as in the Theorem 4 proof sketch): every
// player draws independently from its own marginal.
type ProductPrior struct {
	marginals []prob.Dist
	key       string // IRKey, built once: exact-cost memo hits read it per call
}

// NewProductPrior builds a product prior from per-player marginals; all
// marginals must share a support size.
func NewProductPrior(marginals []prob.Dist) (*ProductPrior, error) {
	if len(marginals) == 0 {
		return nil, fmt.Errorf("dist: empty product prior")
	}
	size := marginals[0].Size()
	for i, m := range marginals {
		if m.Size() != size {
			return nil, fmt.Errorf("dist: marginal %d has support %d, want %d", i, m.Size(), size)
		}
	}
	out := make([]prob.Dist, len(marginals))
	copy(out, marginals)
	return &ProductPrior{marginals: out, key: productKey(out)}, nil
}

// NumPlayers returns the number of players.
func (p *ProductPrior) NumPlayers() int { return len(p.marginals) }

// InputSize returns the per-player support size.
func (p *ProductPrior) InputSize() int { return p.marginals[0].Size() }

// AuxSize returns 1 (the empty auxiliary variable).
func (p *ProductPrior) AuxSize() int { return 1 }

// AuxProb returns 1 for z = 0.
func (p *ProductPrior) AuxProb(z int) float64 {
	if z == 0 {
		return 1
	}
	return 0
}

// PlayerDist returns the marginal of the given player (the auxiliary
// variable is vacuous).
func (p *ProductPrior) PlayerDist(z, player int) (prob.Dist, error) {
	if z != 0 {
		return prob.Dist{}, fmt.Errorf("dist: product prior has aux size 1, got z=%d", z)
	}
	if player < 0 || player >= len(p.marginals) {
		return prob.Dist{}, fmt.Errorf("dist: player %d outside [0,%d)", player, len(p.marginals))
	}
	return p.marginals[player], nil
}

// IRKey names the prior for the compiled-IR program cache: the marginals
// enter as their exact float64 bit patterns, so two product priors share
// a program only when every probability is bit-identical.
func (p *ProductPrior) IRKey() string { return p.key }

func productKey(marginals []prob.Dist) string {
	var b strings.Builder
	b.WriteString("dist.prod/")
	for i, m := range marginals {
		if i > 0 {
			b.WriteByte(';')
		}
		for v := 0; v < m.Size(); v++ {
			if v > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.FormatUint(math.Float64bits(m.P(v)), 16))
		}
	}
	return b.String()
}

// Sample draws one input per player.
func (p *ProductPrior) Sample(src *rng.Source) []int {
	x := make([]int, len(p.marginals))
	for i, m := range p.marginals {
		x[i] = m.Sample(src)
	}
	return x
}
