package dist

import (
	"fmt"
	"math"
	"testing"

	"broadcastic/internal/info"
	"broadcastic/internal/prob"
	"broadcastic/internal/prob/probtest"
	"broadcastic/internal/rng"
)

func TestNewMuValidation(t *testing.T) {
	if _, err := NewMu(1); err == nil {
		t.Fatal("NewMu(1) succeeded")
	}
	if _, err := NewMu(2); err != nil {
		t.Fatalf("NewMu(2): %v", err)
	}
}

func TestMuSupportAlwaysHasZero(t *testing.T) {
	// Condition (1) of Lemma 1: AND of every support point is 0.
	m, _ := NewMu(8)
	src := rng.New(101)
	for trial := 0; trial < 2000; trial++ {
		z, x := m.Sample(src)
		if x[z] != 0 {
			t.Fatalf("special player %d has x=%d", z, x[z])
		}
		if CountZeros(x) == 0 {
			t.Fatal("sampled input with no zeros")
		}
	}
}

func TestMuPlayerDist(t *testing.T) {
	m, _ := NewMu(4)
	d, err := m.PlayerDist(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d.P(0) != 1 {
		t.Fatalf("special player dist = %v", d.Probs())
	}
	d, err = m.PlayerDist(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.P(0)-0.25) > 1e-15 {
		t.Fatalf("non-special P(0) = %v, want 1/4", d.P(0))
	}
	if _, err := m.PlayerDist(4, 0); err == nil {
		t.Fatal("out-of-range z succeeded")
	}
	if _, err := m.PlayerDist(0, -1); err == nil {
		t.Fatal("out-of-range player succeeded")
	}
}

func TestMuProbGivenZSumsToOne(t *testing.T) {
	m, _ := NewMu(5)
	for z := 0; z < 5; z++ {
		total := 0.0
		for mask := 0; mask < 1<<5; mask++ {
			x := make([]int, 5)
			for i := range x {
				x[i] = mask >> uint(i) & 1
			}
			p, err := m.ProbGivenZ(x, z)
			if err != nil {
				t.Fatal(err)
			}
			total += p
		}
		if math.Abs(total-1) > 1e-12 {
			t.Fatalf("z=%d: probabilities sum to %v", z, total)
		}
	}
}

func TestMuProbMarginalSumsToOne(t *testing.T) {
	m, _ := NewMu(4)
	total := 0.0
	for mask := 0; mask < 1<<4; mask++ {
		x := make([]int, 4)
		for i := range x {
			x[i] = mask >> uint(i) & 1
		}
		p, err := m.Prob(x)
		if err != nil {
			t.Fatal(err)
		}
		total += p
	}
	if math.Abs(total-1) > 1e-12 {
		t.Fatalf("marginal sums to %v", total)
	}
	// All-ones has probability 0 under μ.
	p, _ := m.Prob([]int{1, 1, 1, 1})
	if p != 0 {
		t.Fatalf("Pr[1^k] = %v, want 0", p)
	}
}

func TestMuProbValidation(t *testing.T) {
	m, _ := NewMu(3)
	if _, err := m.ProbGivenZ([]int{0, 1}, 0); err == nil {
		t.Fatal("short input succeeded")
	}
	if _, err := m.ProbGivenZ([]int{0, 1, 2}, 0); err == nil {
		t.Fatal("non-binary input succeeded")
	}
	if _, err := m.ProbGivenZ([]int{0, 1, 1}, 3); err == nil {
		t.Fatal("out-of-range z succeeded")
	}
}

func TestMuSampleMatchesProb(t *testing.T) {
	// Empirical frequency of each input must track Prob for small k.
	m, _ := NewMu(3)
	src := rng.New(102)
	const trials = 300000
	counts := make(map[[3]int]int)
	for i := 0; i < trials; i++ {
		_, x := m.Sample(src)
		counts[[3]int{x[0], x[1], x[2]}]++
	}
	for mask := 0; mask < 8; mask++ {
		x := []int{mask & 1, mask >> 1 & 1, mask >> 2 & 1}
		want, _ := m.Prob(x)
		got := float64(counts[[3]int{x[0], x[1], x[2]}]) / trials
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("input %v: frequency %v, want %v", x, got, want)
		}
	}
}

func TestProbSlice(t *testing.T) {
	m, _ := NewMu(6)
	total := 0.0
	for c := 0; c <= 6; c++ {
		p, err := m.ProbSlice(c)
		if err != nil {
			t.Fatal(err)
		}
		total += p
	}
	if math.Abs(total-1) > 1e-12 {
		t.Fatalf("slice probabilities sum to %v", total)
	}
	p0, _ := m.ProbSlice(0)
	if p0 != 0 {
		t.Fatalf("Pr[X_0] = %v, want 0", p0)
	}
	// Pr[exactly two zeroes] is a constant bounded away from 0: the paper
	// conditions on this event. For k=6: C(5,1)(1/6)(5/6)^4 ≈ 0.4.
	p2, _ := m.ProbSlice(2)
	if p2 < 0.3 {
		t.Fatalf("Pr[X_2] = %v unexpectedly small", p2)
	}
	if _, err := m.ProbSlice(7); err == nil {
		t.Fatal("out-of-range slice succeeded")
	}
}

func TestSampleFromSlice(t *testing.T) {
	m, _ := NewMu(7)
	src := rng.New(103)
	for trial := 0; trial < 500; trial++ {
		x, err := m.SampleFromSlice(src, 2)
		if err != nil {
			t.Fatal(err)
		}
		if CountZeros(x) != 2 {
			t.Fatalf("slice sample has %d zeros", CountZeros(x))
		}
	}
	if _, err := m.SampleFromSlice(src, 0); err == nil {
		t.Fatal("c=0 succeeded")
	}
	if _, err := m.SampleFromSlice(src, 8); err == nil {
		t.Fatal("c>k succeeded")
	}
}

func TestSampleFromSliceUniform(t *testing.T) {
	// Conditioned on X_2, the zero pair is uniform over C(k,2) pairs.
	m, _ := NewMu(4)
	src := rng.New(104)
	counts := make(map[[2]int]int)
	const trials = 60000
	for i := 0; i < trials; i++ {
		x, _ := m.SampleFromSlice(src, 2)
		var pair [2]int
		idx := 0
		for j, v := range x {
			if v == 0 {
				pair[idx] = j
				idx++
			}
		}
		counts[pair]++
	}
	want := float64(trials) / 6 // C(4,2) = 6
	for pair, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Fatalf("pair %v count %d, want ~%v", pair, c, want)
		}
	}
}

func TestMuN(t *testing.T) {
	mn, err := NewMuN(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if mn.InputSize() != 4 || mn.AuxSize() != 9 {
		t.Fatalf("InputSize=%d AuxSize=%d", mn.InputSize(), mn.AuxSize())
	}
	// PlayerDist sums to 1 for every aux value.
	for z := 0; z < mn.AuxSize(); z++ {
		for i := 0; i < 3; i++ {
			d, err := mn.PlayerDist(z, i)
			if err != nil {
				t.Fatal(err)
			}
			sum := 0.0
			for v := 0; v < d.Size(); v++ {
				sum += d.P(v)
			}
			if math.Abs(sum-1) > 1e-12 {
				t.Fatalf("z=%d i=%d: dist sums to %v", z, i, sum)
			}
		}
	}
	if _, err := NewMuN(1, 2); err == nil {
		t.Fatal("k=1 succeeded")
	}
	if _, err := NewMuN(3, 0); err == nil {
		t.Fatal("n=0 succeeded")
	}
}

func TestMuNSpecialPlayerForcedZero(t *testing.T) {
	mn, _ := NewMuN(3, 2)
	// aux z encodes (Z_1, Z_2) base 3 with Z_1 least significant.
	// z = 1 + 2*3 = 7 means Z_1 = 1, Z_2 = 2.
	d1, err := mn.PlayerDist(7, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Player 1's coordinate 0 (bit 0) must be 0: all values with bit0=1
	// have probability 0.
	for v := 0; v < 4; v++ {
		if v&1 == 1 && d1.P(v) != 0 {
			t.Fatalf("player 1 value %d has prob %v, want 0", v, d1.P(v))
		}
	}
	d2, err := mn.PlayerDist(7, 2)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 4; v++ {
		if v>>1&1 == 1 && d2.P(v) != 0 {
			t.Fatalf("player 2 value %d has prob %v, want 0", v, d2.P(v))
		}
	}
}

func TestMuNSample(t *testing.T) {
	mn, _ := NewMuN(4, 10)
	src := rng.New(105)
	zs, inputs, err := mn.Sample(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(zs) != 10 || len(inputs) != 4 {
		t.Fatalf("dims: zs=%d inputs=%d", len(zs), len(inputs))
	}
	// Every coordinate's special player holds a zero there.
	for j, z := range zs {
		if inputs[z]>>uint(j)&1 != 0 {
			t.Fatalf("coordinate %d: special player %d has a one", j, z)
		}
	}
}

func TestLemma6Dist(t *testing.T) {
	d, err := NewLemma6Dist(5, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(106)
	allOnes, oneZero := 0, 0
	const trials = 100000
	for i := 0; i < trials; i++ {
		x, zeroAt := d.Sample(src)
		switch CountZeros(x) {
		case 0:
			if zeroAt != -1 {
				t.Fatal("all-ones sample reported a zero position")
			}
			allOnes++
		case 1:
			if x[zeroAt] != 0 {
				t.Fatal("reported zero position is not zero")
			}
			oneZero++
		default:
			t.Fatalf("sample with %d zeros", CountZeros(x))
		}
	}
	if math.Abs(float64(allOnes)/trials-0.2) > 0.01 {
		t.Fatalf("all-ones rate %v, want 0.2", float64(allOnes)/trials)
	}
	_ = oneZero

	// Exact probabilities.
	x := []int{1, 1, 1, 1, 1}
	p, _ := d.Prob(x)
	if math.Abs(p-0.2) > 1e-15 {
		t.Fatalf("Prob(1^k) = %v", p)
	}
	x[2] = 0
	p, _ = d.Prob(x)
	if math.Abs(p-0.8/5) > 1e-15 {
		t.Fatalf("Prob(one zero) = %v", p)
	}
	x[3] = 0
	p, _ = d.Prob(x)
	if p != 0 {
		t.Fatalf("Prob(two zeros) = %v, want 0", p)
	}

	if _, err := NewLemma6Dist(0, 0.2); err == nil {
		t.Fatal("k=0 succeeded")
	}
	if _, err := NewLemma6Dist(5, 0); err == nil {
		t.Fatal("εPrime=0 succeeded")
	}
	if _, err := NewLemma6Dist(5, 1); err == nil {
		t.Fatal("εPrime=1 succeeded")
	}
	if _, err := d.Prob([]int{1, 1}); err == nil {
		t.Fatal("short input succeeded")
	}
}

func TestProductPrior(t *testing.T) {
	b03, err := prob.Bernoulli(0.3)
	if err != nil {
		t.Fatal(err)
	}
	b07, err := prob.Bernoulli(0.7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewProductPrior(nil); err == nil {
		t.Fatal("empty product prior succeeded")
	}
	u3, _ := probtest.Uniform(3)
	if _, err := NewProductPrior([]prob.Dist{b03, u3}); err == nil {
		t.Fatal("mismatched marginal supports succeeded")
	}
	prior, err := NewProductPrior([]prob.Dist{b03, b07})
	if err != nil {
		t.Fatal(err)
	}
	if prior.NumPlayers() != 2 || prior.InputSize() != 2 || prior.AuxSize() != 1 {
		t.Fatalf("shape: %d players, input %d, aux %d",
			prior.NumPlayers(), prior.InputSize(), prior.AuxSize())
	}
	if prior.AuxProb(0) != 1 || prior.AuxProb(1) != 0 {
		t.Fatal("aux probabilities wrong")
	}
	d, err := prior.PlayerDist(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.P(1)-0.7) > 1e-15 {
		t.Fatalf("player 1 marginal = %v", d.Probs())
	}
	if _, err := prior.PlayerDist(1, 0); err == nil {
		t.Fatal("nonzero aux succeeded")
	}
	if _, err := prior.PlayerDist(0, 2); err == nil {
		t.Fatal("out-of-range player succeeded")
	}
	src := rng.New(107)
	x := prior.Sample(src)
	if len(x) != 2 {
		t.Fatalf("sample length %d", len(x))
	}
}

func TestMuAccessors(t *testing.T) {
	m, _ := NewMu(5)
	if m.NumPlayers() != 5 || m.InputSize() != 2 || m.AuxSize() != 5 {
		t.Fatalf("accessors: %d %d %d", m.NumPlayers(), m.InputSize(), m.AuxSize())
	}
	if math.Abs(m.AuxProb(2)-0.2) > 1e-15 {
		t.Fatalf("AuxProb = %v", m.AuxProb(2))
	}
	if m.AuxProb(-1) != 0 || m.AuxProb(5) != 0 {
		t.Fatal("out-of-range AuxProb nonzero")
	}
	mn, _ := NewMuN(3, 2)
	if mn.NumPlayers() != 3 || mn.NumCoordinates() != 2 {
		t.Fatalf("MuN accessors: %d %d", mn.NumPlayers(), mn.NumCoordinates())
	}
	if mn.AuxProb(-1) != 0 || mn.AuxProb(9) != 0 {
		t.Fatal("MuN out-of-range AuxProb nonzero")
	}
	if math.Abs(mn.AuxProb(0)-1.0/9) > 1e-15 {
		t.Fatalf("MuN AuxProb = %v", mn.AuxProb(0))
	}
	d6, _ := NewLemma6Dist(4, 0.3)
	if d6.NumPlayers() != 4 || math.Abs(d6.EpsPrime()-0.3) > 1e-15 {
		t.Fatal("Lemma6Dist accessors wrong")
	}
	if _, err := mn.PlayerDist(-1, 0); err == nil {
		t.Fatal("MuN PlayerDist out-of-range succeeded")
	}
}

func TestMuNSampleRejectsHugeN(t *testing.T) {
	mn := &MuN{}
	_ = mn
	big, err := NewMuN(2, 16)
	if err != nil {
		t.Fatal(err)
	}
	_ = big
	// n=16 is fine for Sample; the n>63 guard needs a direct construction,
	// which NewMuN already prevents via AuxSize overflow in practice, so
	// just confirm a normal sample works.
	src := rng.New(1)
	if _, _, err := big.Sample(src); err != nil {
		t.Fatal(err)
	}
}

// TestSampleZeroMatchesSample pins draw-for-draw identity between the
// allocation-free SampleZero and the allocating Sample.
func TestSampleZeroMatchesSample(t *testing.T) {
	d, err := NewLemma6Dist(64, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	a, b := rng.New(77), rng.New(77)
	for trial := 0; trial < 2000; trial++ {
		x, zeroAt := d.Sample(a)
		got := d.SampleZero(b)
		if got != zeroAt {
			t.Fatalf("trial %d: SampleZero %d != Sample zeroAt %d", trial, got, zeroAt)
		}
		for i, v := range x {
			want := 1
			if i == zeroAt {
				want = 0
			}
			if v != want {
				t.Fatalf("trial %d: x[%d]=%d inconsistent with zeroAt %d", trial, i, v, zeroAt)
			}
		}
	}
	// Same stream position afterwards.
	if a.Uint64() != b.Uint64() {
		t.Fatal("SampleZero left the stream at a different position than Sample")
	}
}

// TestMuLaneRowsMatchPlayerDist pins the two-row table μ's conditionals
// form: PlayerDist(z, i) is exactly Point(0) when i == z and exactly
// Bernoulli(1 − 1/k) otherwise, so the compiled estimator's row index
// (which interns rows by value) holds two rows for μ at every k.
func TestMuLaneRowsMatchPlayerDist(t *testing.T) {
	for _, k := range []int{2, 5, 64} {
		m, err := NewMu(k)
		if err != nil {
			t.Fatal(err)
		}
		special, err := prob.Point(2, 0)
		if err != nil {
			t.Fatal(err)
		}
		regular, err := prob.Bernoulli(1 - 1/float64(k))
		if err != nil {
			t.Fatal(err)
		}
		distinct := map[[2]uint64]bool{}
		for z := 0; z < k; z++ {
			for i := 0; i < k; i++ {
				got, err := m.PlayerDist(z, i)
				if err != nil {
					t.Fatal(err)
				}
				want := regular
				if i == z {
					want = special
				}
				var key [2]uint64
				for v := 0; v < 2; v++ {
					if got.P(v) != want.P(v) {
						t.Fatalf("k=%d z=%d player %d: P(%d)=%v, want %v",
							k, z, i, v, got.P(v), want.P(v))
					}
					key[v] = math.Float64bits(got.P(v))
				}
				distinct[key] = true
			}
		}
		if len(distinct) != 2 {
			t.Fatalf("k=%d: %d distinct conditional rows, want 2", k, len(distinct))
		}
	}
}

// TestMuRowsScoreSilentPlayersZero pins the property per-edge scoring of
// μ relies on: both conditional rows sum to exactly 1.0, so a player who
// never speaks contributes exactly +0.0 to the estimator's divergence sum.
func TestMuRowsScoreSilentPlayersZero(t *testing.T) {
	ones := []float64{1, 1}
	for k := 2; k <= 4096; k++ {
		m, err := NewMu(k)
		if err != nil {
			t.Fatal(err)
		}
		for _, player := range []int{0, 1} {
			row, err := m.PlayerDist(0, player)
			if err != nil {
				t.Fatal(err)
			}
			d, err := info.QDivergenceSum([][]float64{ones}, [][]float64{row.Probs()})
			if err != nil || math.Float64bits(d) != 0 {
				t.Fatalf("k=%d player %d: silent term %v (err %v), want +0.0", k, player, d, err)
			}
		}
	}
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
	binom, err := probtest.BinomialPMF(m.k-1, 1/float64(m.k))
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

// NumCoordinates returns n.
func (m *MuN) NumCoordinates() int { return m.n }

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

// Sample draws one input per player.
func (p *ProductPrior) Sample(src *rng.Source) []int {
	x := make([]int, len(p.marginals))
	for i, m := range p.marginals {
		x[i] = m.Sample(src)
	}
	return x
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
