package info

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"broadcastic/internal/prob"
	"broadcastic/internal/prob/probtest"
	"broadcastic/internal/rng"
)

func mustDist(t *testing.T, p []float64) prob.Dist {
	t.Helper()
	d, err := prob.NewDist(p)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestEntropyKnownValues(t *testing.T) {
	cases := []struct {
		p    []float64
		want float64
	}{
		{[]float64{1}, 0},
		{[]float64{0.5, 0.5}, 1},
		{[]float64{0.25, 0.25, 0.25, 0.25}, 2},
		{[]float64{1, 0}, 0},
		{[]float64{0.5, 0.25, 0.25}, 1.5},
	}
	for _, tc := range cases {
		got := Entropy(mustDist(t, tc.p))
		if math.Abs(got-tc.want) > 1e-12 {
			t.Fatalf("Entropy(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestEntropyBounds(t *testing.T) {
	src := rng.New(50)
	check := func(seed uint16) bool {
		n := int(seed%16) + 1
		w := make([]float64, n)
		for i := range w {
			w[i] = src.Float64() + 1e-9
		}
		d, err := prob.Normalize(w)
		if err != nil {
			return false
		}
		h := Entropy(d)
		return h >= -1e-12 && h <= math.Log2(float64(n))+1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestBinaryEntropy(t *testing.T) {
	if got := BinaryEntropy(0.5); math.Abs(got-1) > 1e-12 {
		t.Fatalf("H(0.5) = %v", got)
	}
	if BinaryEntropy(0) != 0 || BinaryEntropy(1) != 0 {
		t.Fatal("H at endpoints nonzero")
	}
	// Symmetry H(p) = H(1-p).
	for _, p := range []float64{0.1, 0.3, 0.42} {
		if math.Abs(BinaryEntropy(p)-BinaryEntropy(1-p)) > 1e-12 {
			t.Fatalf("binary entropy asymmetric at %v", p)
		}
	}
}

func TestKLProperties(t *testing.T) {
	a := mustDist(t, []float64{0.5, 0.5})
	b := mustDist(t, []float64{0.9, 0.1})

	same, err := KL(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if same != 0 {
		t.Fatalf("KL(a,a) = %v", same)
	}

	d, err := KL(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Fatalf("KL(a,b) = %v, want > 0", d)
	}

	// Asymmetry: KL(a,b) != KL(b,a) in general.
	rev, _ := KL(b, a)
	if math.Abs(d-rev) < 1e-9 {
		t.Fatalf("KL unexpectedly symmetric: %v vs %v", d, rev)
	}

	// Absolute-continuity violation -> +Inf.
	c := mustDist(t, []float64{1, 0})
	e := mustDist(t, []float64{0, 1})
	inf, _ := KL(c, e)
	if !math.IsInf(inf, 1) {
		t.Fatalf("KL with disjoint supports = %v, want +Inf", inf)
	}

	u3 := mustDist(t, []float64{1.0 / 3, 1.0 / 3, 1.0 / 3})
	if _, err := KL(a, u3); err == nil {
		t.Fatal("KL across support sizes succeeded")
	}
}

func TestKLNonNegativityProperty(t *testing.T) {
	src := rng.New(51)
	check := func(seed uint16) bool {
		n := int(seed%8) + 2
		w1 := make([]float64, n)
		w2 := make([]float64, n)
		for i := range w1 {
			w1[i] = src.Float64() + 1e-6
			w2[i] = src.Float64() + 1e-6
		}
		d1, _ := prob.Normalize(w1)
		d2, _ := prob.Normalize(w2)
		kl, err := KL(d1, d2)
		return err == nil && kl >= 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestKLBernoulliMatchesGeneric(t *testing.T) {
	for _, pq := range [][2]float64{{0.3, 0.5}, {0.9, 0.1}, {0.01, 0.99}, {0.5, 0.5}} {
		p, q := pq[0], pq[1]
		fast := KLBernoulli(p, q)
		dp, _ := prob.Bernoulli(p)
		dq, _ := prob.Bernoulli(q)
		slow, err := KL(dp, dq)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(fast-slow) > 1e-12 {
			t.Fatalf("KLBernoulli(%v,%v)=%v, generic=%v", p, q, fast, slow)
		}
	}
	if !math.IsInf(KLBernoulli(0.5, 0), 1) {
		t.Fatal("KLBernoulli(0.5,0) not +Inf")
	}
	if !math.IsInf(KLBernoulli(0.5, 1), 1) {
		t.Fatal("KLBernoulli(0.5,1) not +Inf")
	}
	if !math.IsNaN(KLBernoulli(-0.1, 0.5)) {
		t.Fatal("KLBernoulli with invalid p not NaN")
	}
	if KLBernoulli(0, 0.5) <= 0 {
		t.Fatal("KLBernoulli(0,0.5) should be positive")
	}
}

func TestJointValidation(t *testing.T) {
	if _, err := NewJoint(0, 2, nil); err == nil {
		t.Fatal("zero dimension succeeded")
	}
	if _, err := NewJoint(2, 2, []float64{1}); err == nil {
		t.Fatal("wrong entry count succeeded")
	}
	if _, err := NewJoint(1, 2, []float64{0.7, 0.7}); err == nil {
		t.Fatal("unnormalized joint succeeded")
	}
	if _, err := NewJoint(1, 2, []float64{-0.5, 1.5}); err == nil {
		t.Fatal("negative joint entry succeeded")
	}
}

func TestMutualInformationIndependent(t *testing.T) {
	// X uniform on 2, Y uniform on 2, independent: I = 0.
	j, err := NewJoint(2, 2, []float64{0.25, 0.25, 0.25, 0.25})
	if err != nil {
		t.Fatal(err)
	}
	mi, err := j.MutualInformation()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mi) > 1e-12 {
		t.Fatalf("MI of independent = %v", mi)
	}
}

func TestMutualInformationPerfectlyCorrelated(t *testing.T) {
	// Y = X, X uniform on 2: I = 1 bit.
	j, err := NewJoint(2, 2, []float64{0.5, 0, 0, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	mi, err := j.MutualInformation()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mi-1) > 1e-12 {
		t.Fatalf("MI of copy channel = %v, want 1", mi)
	}
}

func TestMIEntropyIdentity(t *testing.T) {
	// I(X;Y) = H(X) - H(X|Y) on a random joint.
	src := rng.New(52)
	check := func(seed uint16) bool {
		nx := int(seed%3) + 2
		ny := int(seed/3%3) + 2
		j, err := EmptyJoint(nx, ny)
		if err != nil {
			return false
		}
		for x := 0; x < nx; x++ {
			for y := 0; y < ny; y++ {
				if err := j.Add(x, y, src.Float64()+1e-6); err != nil {
					return false
				}
			}
		}
		if err := j.NormalizeInPlace(); err != nil {
			return false
		}
		mi, err := j.MutualInformation()
		if err != nil {
			return false
		}
		mx, err := j.MarginalX()
		if err != nil {
			return false
		}
		hxy, err := j.ConditionalEntropyXGivenY()
		if err != nil {
			return false
		}
		return math.Abs(mi-(Entropy(mx)-hxy)) < 1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestJointAddErrors(t *testing.T) {
	j, _ := EmptyJoint(2, 2)
	if err := j.Add(2, 0, 0.1); err == nil {
		t.Fatal("out-of-range Add succeeded")
	}
	if err := j.Add(0, 0, -1); err == nil {
		t.Fatal("negative-weight Add succeeded")
	}
	if err := j.NormalizeInPlace(); err == nil {
		t.Fatal("normalizing empty table succeeded")
	}
}

func TestPointedPosteriorDivergenceLB(t *testing.T) {
	// Eq. (3)-(4): D(Bern posterior ‖ Bern prior 1/k) >= p log k - 1 when
	// posterior zero-probability is p. Verify exactly.
	for _, k := range []int{4, 16, 64, 1024} {
		for _, p := range []float64{0.25, 0.5, 0.9} {
			exact := KLBernoulli(p, 1/float64(k))
			lb := PointedPosteriorDivergenceLB(p, k)
			if exact < lb-1e-12 {
				t.Fatalf("k=%d p=%v: exact divergence %v below Eq.(4) bound %v", k, p, exact, lb)
			}
		}
	}
}

func TestPinskerInequality(t *testing.T) {
	// TV(p, q) <= sqrt(ln2/2 · D(p‖q)) — the standard bridge between the
	// divergence the proofs manipulate and statistical distance.
	src := rng.New(54)
	check := func(seed uint16) bool {
		n := int(seed%6) + 2
		w1 := make([]float64, n)
		w2 := make([]float64, n)
		for i := range w1 {
			w1[i] = src.Float64() + 1e-6
			w2[i] = src.Float64() + 1e-6
		}
		p, _ := prob.Normalize(w1)
		q, _ := prob.Normalize(w2)
		kl, err := KL(p, q)
		if err != nil {
			return false
		}
		tv, err := probtest.TV(p, q)
		if err != nil {
			return false
		}
		return tv <= math.Sqrt(math.Ln2/2*kl)+1e-12
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestEntropyChainRule(t *testing.T) {
	// H(X, Y) = H(Y) + H(X|Y) on random joints.
	src := rng.New(56)
	check := func(seed uint16) bool {
		nx := int(seed%3) + 2
		ny := int(seed/3%3) + 2
		j, err := EmptyJoint(nx, ny)
		if err != nil {
			return false
		}
		flat := make([]float64, 0, nx*ny)
		for x := 0; x < nx; x++ {
			for y := 0; y < ny; y++ {
				w := src.Float64() + 1e-6
				if err := j.Add(x, y, w); err != nil {
					return false
				}
				flat = append(flat, w)
			}
		}
		if err := j.NormalizeInPlace(); err != nil {
			return false
		}
		joint, err := prob.Normalize(flat)
		if err != nil {
			return false
		}
		my, err := j.MarginalY()
		if err != nil {
			return false
		}
		hxGivenY, err := j.ConditionalEntropyXGivenY()
		if err != nil {
			return false
		}
		return math.Abs(Entropy(joint)-(Entropy(my)+hxGivenY)) < 1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestConditioningReducesEntropy(t *testing.T) {
	// H(X|Y) <= H(X): "information never hurts", the inequality behind
	// IC <= H(Π) in the paper's Section 6 argument.
	src := rng.New(57)
	check := func(seed uint16) bool {
		nx := int(seed%4) + 2
		ny := int(seed/4%4) + 2
		j, err := EmptyJoint(nx, ny)
		if err != nil {
			return false
		}
		for x := 0; x < nx; x++ {
			for y := 0; y < ny; y++ {
				if err := j.Add(x, y, src.Float64()+1e-6); err != nil {
					return false
				}
			}
		}
		if err := j.NormalizeInPlace(); err != nil {
			return false
		}
		mx, err := j.MarginalX()
		if err != nil {
			return false
		}
		hxy, err := j.ConditionalEntropyXGivenY()
		if err != nil {
			return false
		}
		return hxy <= Entropy(mx)+1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestJointP(t *testing.T) {
	j, _ := NewJoint(2, 2, []float64{0.1, 0.2, 0.3, 0.4})
	if math.Abs(j.P(1, 0)-0.3) > 1e-15 {
		t.Fatalf("P(1,0) = %v", j.P(1, 0))
	}
	if j.P(-1, 0) != 0 || j.P(0, 2) != 0 {
		t.Fatal("out-of-range P nonzero")
	}
}

// BinaryEntropy returns H(p) = -p log p - (1-p) log(1-p), the entropy of a
// Bernoulli(p) variable, used directly in the paper's Eq. (3)–(4).
func BinaryEntropy(p float64) float64 {
	if p <= 0 || p >= 1 {
		return 0
	}
	return -p*log2(p) - (1-p)*log2(1-p)
}

// NewJoint validates and wraps a joint table given in row-major order.
func NewJoint(nx, ny int, p []float64) (*Joint, error) {
	if nx <= 0 || ny <= 0 {
		return nil, fmt.Errorf("info: non-positive joint dimensions %dx%d", nx, ny)
	}
	if len(p) != nx*ny {
		return nil, fmt.Errorf("info: joint table has %d entries, want %d", len(p), nx*ny)
	}
	sum := 0.0
	for i, v := range p {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("info: invalid joint probability p[%d]=%v", i, v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		return nil, fmt.Errorf("info: joint probabilities sum to %v, want 1", sum)
	}
	q := make([]float64, len(p))
	copy(q, p)
	return &Joint{nx: nx, ny: ny, p: q}, nil
}

// P returns the joint probability of (x, y).
func (j *Joint) P(x, y int) float64 {
	if x < 0 || x >= j.nx || y < 0 || y >= j.ny {
		return 0
	}
	return j.p[x*j.ny+y]
}

// ConditionalEntropyXGivenY returns H(X | Y) in bits (Definition 2).
func (j *Joint) ConditionalEntropyXGivenY() (float64, error) {
	my, err := j.MarginalY()
	if err != nil {
		return 0, err
	}
	h := 0.0
	for y := 0; y < j.ny; y++ {
		py := my.P(y)
		if py <= 0 {
			continue
		}
		for x := 0; x < j.nx; x++ {
			pxy := j.p[x*j.ny+y]
			if pxy <= 0 {
				continue
			}
			h -= pxy * log2(pxy/py)
		}
	}
	return h, nil
}

// Entropy returns H(X) for X ~ d (Definition 1), in bits.
func Entropy(d prob.Dist) float64 {
	h := 0.0
	for _, p := range d.Probs() {
		if p > 0 {
			h -= p * log2(p)
		}
	}
	return h
}
