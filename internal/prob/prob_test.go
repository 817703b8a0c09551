package prob

import (
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

func TestPointAndUniform(t *testing.T) {
	d, err := Point(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d.P(2) != 1 || d.P(0) != 0 {
		t.Fatalf("Point = %v", d.Probs())
	}
	if _, err := Point(4, 4); err == nil {
		t.Fatal("Point outside support succeeded")
	}
	if _, err := Point(0, 0); err == nil {
		t.Fatal("Point with empty support succeeded")
	}

	u, err := Uniform(5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if math.Abs(u.P(i)-0.2) > 1e-15 {
			t.Fatalf("Uniform(5).P(%d) = %v", i, u.P(i))
		}
	}
	if _, err := Uniform(0); err == nil {
		t.Fatal("Uniform(0) succeeded")
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
	d, _ := Uniform(3)
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

func TestTV(t *testing.T) {
	a, _ := NewDist([]float64{1, 0})
	b, _ := NewDist([]float64{0, 1})
	tv, err := TV(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tv-1) > 1e-15 {
		t.Fatalf("TV of disjoint points = %v", tv)
	}
	tv, _ = TV(a, a)
	if tv != 0 {
		t.Fatalf("TV(a,a) = %v", tv)
	}
	c, _ := Uniform(3)
	if _, err := TV(a, c); err == nil {
		t.Fatal("TV across support sizes succeeded")
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

func TestEmpirical(t *testing.T) {
	d, err := Empirical([]int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.P(1)-0.75) > 1e-15 {
		t.Fatalf("Empirical = %v", d.Probs())
	}
	if _, err := Empirical([]int{-1, 2}); err == nil {
		t.Fatal("Empirical with negative count succeeded")
	}
}

func TestBinomialPMF(t *testing.T) {
	d, err := BinomialPMF(4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1.0 / 16, 4.0 / 16, 6.0 / 16, 4.0 / 16, 1.0 / 16}
	for k, w := range want {
		if math.Abs(d.P(k)-w) > 1e-12 {
			t.Fatalf("Binomial(4,0.5).P(%d) = %v, want %v", k, d.P(k), w)
		}
	}
	if got := d.Mean(); math.Abs(got-2) > 1e-12 {
		t.Fatalf("Binomial mean = %v", got)
	}

	d0, _ := BinomialPMF(10, 0)
	if d0.P(0) != 1 {
		t.Fatalf("Binomial(10,0) = %v", d0.Probs())
	}
	d1, _ := BinomialPMF(10, 1)
	if d1.P(10) != 1 {
		t.Fatalf("Binomial(10,1) = %v", d1.Probs())
	}
	if _, err := BinomialPMF(-1, 0.5); err == nil {
		t.Fatal("negative n succeeded")
	}
	if _, err := BinomialPMF(3, 1.5); err == nil {
		t.Fatal("p>1 succeeded")
	}
}

func TestBinomialLargeNStable(t *testing.T) {
	d, err := BinomialPMF(500, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.Mean()-5) > 1e-6 {
		t.Fatalf("Binomial(500,0.01) mean = %v", d.Mean())
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
	d, _ := Uniform(2)
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
