package prob

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"broadcastic/internal/rng"
)

func TestNewDistValidation(t *testing.T) {
	cases := []struct {
		name string
		p    []float64
		ok   bool
	}{
		{"valid", []float64{0.5, 0.5}, true},
		{"point", []float64{1}, true},
		{"empty", nil, false},
		{"negative", []float64{-0.1, 1.1}, false},
		{"nan", []float64{math.NaN(), 1}, false},
		{"inf", []float64{math.Inf(1), 0}, false},
		{"unnormalized", []float64{0.5, 0.6}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewDist(tc.p)
			if (err == nil) != tc.ok {
				t.Fatalf("NewDist(%v) err=%v, want ok=%v", tc.p, err, tc.ok)
			}
		})
	}
}

func TestNormalize(t *testing.T) {
	d, err := Normalize([]float64{2, 6})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.P(0)-0.25) > 1e-15 || math.Abs(d.P(1)-0.75) > 1e-15 {
		t.Fatalf("Normalize = %v", d.Probs())
	}
	if _, err := Normalize([]float64{0, 0}); err == nil {
		t.Fatal("Normalize of all-zero weights succeeded")
	}
	if _, err := Normalize([]float64{-1, 2}); err == nil {
		t.Fatal("Normalize of negative weight succeeded")
	}
	if _, err := Normalize(nil); err == nil {
		t.Fatal("Normalize(nil) succeeded")
	}
}

func TestBernoulli(t *testing.T) {
	d, err := Bernoulli(0.3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.P(1)-0.3) > 1e-15 || math.Abs(d.P(0)-0.7) > 1e-15 {
		t.Fatalf("Bernoulli(0.3) = %v", d.Probs())
	}
	if _, err := Bernoulli(1.5); err == nil {
		t.Fatal("Bernoulli(1.5) succeeded")
	}
	if _, err := Bernoulli(-0.5); err == nil {
		t.Fatal("Bernoulli(-0.5) succeeded")
	}
}

func TestPOutsideSupport(t *testing.T) {
	d := distFromOwned(uniformVec(3))
	if d.P(-1) != 0 || d.P(3) != 0 {
		t.Fatal("P outside support is nonzero")
	}
}

func TestSampleFrequencies(t *testing.T) {
	src := rng.New(21)
	d, _ := NewDist([]float64{0.1, 0.2, 0.3, 0.4})
	const trials = 200000
	counts := make([]int, 4)
	for i := 0; i < trials; i++ {
		counts[d.Sample(src)]++
	}
	for i, want := range d.Probs() {
		got := float64(counts[i]) / trials
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("outcome %d frequency %v, want %v", i, got, want)
		}
	}
}

func TestSampleRespectsZeroMass(t *testing.T) {
	src := rng.New(22)
	d, _ := NewDist([]float64{0, 1, 0})
	for i := 0; i < 1000; i++ {
		if d.Sample(src) != 1 {
			t.Fatal("sampled an outcome with zero probability")
		}
	}
}

func TestSupportAndMean(t *testing.T) {
	d, _ := NewDist([]float64{0.5, 0, 0.5})
	sup := d.Support()
	if len(sup) != 2 || sup[0] != 0 || sup[1] != 2 {
		t.Fatalf("Support = %v", sup)
	}
	if got := d.Mean(); math.Abs(got-1) > 1e-15 {
		t.Fatalf("Mean = %v", got)
	}
}

func TestMix(t *testing.T) {
	a, _ := NewDist([]float64{1, 0})
	b, _ := NewDist([]float64{0, 1})
	m, err := Mix(a, b, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.P(0)-0.25) > 1e-15 {
		t.Fatalf("Mix = %v", m.Probs())
	}
	if _, err := Mix(a, b, 2); err == nil {
		t.Fatal("Mix with weight 2 succeeded")
	}
}

func TestConditional(t *testing.T) {
	d, _ := NewDist([]float64{0.2, 0.3, 0.5})
	c, err := d.Conditional(func(x int) bool { return x >= 1 })
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c.P(1)-0.375) > 1e-12 || math.Abs(c.P(2)-0.625) > 1e-12 || c.P(0) != 0 {
		t.Fatalf("Conditional = %v", c.Probs())
	}
	if _, err := d.Conditional(func(int) bool { return false }); err == nil {
		t.Fatal("conditioning on empty event succeeded")
	}
}

func TestProduct(t *testing.T) {
	a, _ := NewDist([]float64{0.25, 0.75})
	b, _ := NewDist([]float64{0.5, 0.5})
	p := Product(a, b)
	if p.Size() != 4 {
		t.Fatalf("Product size = %d", p.Size())
	}
	if math.Abs(p.P(0*2+1)-0.125) > 1e-15 {
		t.Fatalf("Product P(0,1) = %v", p.P(1))
	}
	if math.Abs(p.P(1*2+0)-0.375) > 1e-15 {
		t.Fatalf("Product P(1,0) = %v", p.P(2))
	}
}

func TestNormalizeIsDistribution(t *testing.T) {
	src := rng.New(30)
	check := func(seed uint16) bool {
		n := int(seed%20) + 1
		w := make([]float64, n)
		positive := false
		for i := range w {
			w[i] = src.Float64()
			if w[i] > 0 {
				positive = true
			}
		}
		if !positive {
			w[0] = 1
		}
		d, err := Normalize(w)
		if err != nil {
			return false
		}
		sum := 0.0
		for _, v := range d.Probs() {
			if v < 0 {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestProbsReturnsCopy(t *testing.T) {
	d := distFromOwned(uniformVec(2))
	p := d.Probs()
	p[0] = 99
	if d.P(0) == 99 {
		t.Fatal("Probs exposed internal storage")
	}
}

// TestSampleUMatchesSample pins SampleU, the caller-supplied-uniform half
// of Sample, on both sampling paths: fed the uniform Float64 would draw,
// it returns the outcome Sample returns.
func TestSampleUMatchesSample(t *testing.T) {
	weights := make([]float64, 200) // support ≥ cdfMinSize: cached path
	for i := range weights {
		weights[i] = float64(i%7) + 1
	}
	big, err := Normalize(weights)
	if err != nil {
		t.Fatal(err)
	}
	small, err := Normalize(weights[:5])
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []Dist{big, small} {
		a, b := rng.New(55), rng.New(55)
		for i := 0; i < 500; i++ {
			if got, want := d.SampleU(b.Float64()), d.Sample(a); got != want {
				t.Fatalf("draw %d: SampleU %d != Sample %d", i, got, want)
			}
		}
	}
}

// Cached returns a copy of d that samples through the prefix-sum table
// regardless of support size. Like Uncached, it exists so benchmarks and
// equivalence tests can exercise the cached path on supports below
// cdfMinSize; production callers rely on the size heuristic.
func (d Dist) Cached() Dist {
	if d.cdf != nil {
		return d
	}
	return Dist{p: d.p, cdf: &cdfCache{p: d.p}}
}

// Mean returns Σ x·p(x), treating outcomes as integers.
func (d Dist) Mean() float64 {
	m := 0.0
	for i, v := range d.p {
		m += float64(i) * v
	}
	return m
}

// Mix returns the mixture w·d + (1-w)·e.
func Mix(d, e Dist, w float64) (Dist, error) {
	if d.Size() != e.Size() {
		return Dist{}, fmt.Errorf("prob: Mix support mismatch %d vs %d", d.Size(), e.Size())
	}
	if w < 0 || w > 1 {
		return Dist{}, fmt.Errorf("prob: mixture weight %v outside [0,1]", w)
	}
	p := make([]float64, d.Size())
	for i := range p {
		p[i] = w*d.p[i] + (1-w)*e.p[i]
	}
	return distFromOwned(p), nil
}

// Conditional returns d conditioned on the outcome lying in keep (a
// predicate over outcomes). Errors if the kept event has zero mass.
func (d Dist) Conditional(keep func(int) bool) (Dist, error) {
	w := make([]float64, d.Size())
	for i, v := range d.p {
		if keep(i) {
			w[i] = v
		}
	}
	cond, err := Normalize(w)
	if err != nil {
		return Dist{}, fmt.Errorf("prob: conditioning on zero-mass event: %w", err)
	}
	return cond, nil
}

// Product returns the product distribution of d and e over the flattened
// support of size d.Size()*e.Size(), indexed as x*e.Size()+y.
func Product(d, e Dist) Dist {
	p := make([]float64, d.Size()*e.Size())
	for x, px := range d.p {
		for y, py := range e.p {
			p[x*e.Size()+y] = px * py
		}
	}
	return distFromOwned(p)
}

// Support returns the outcomes with strictly positive probability.
func (d Dist) Support() []int {
	out := make([]int, 0, len(d.p))
	for i, v := range d.p {
		if v > 0 {
			out = append(out, i)
		}
	}
	return out
}
