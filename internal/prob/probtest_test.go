package prob_test

// Tests of the reference distributions in prob/probtest, which tests of
// several packages build inputs and oracles from.

import (
	"math"
	"testing"

	"broadcastic/internal/prob"
	"broadcastic/internal/prob/probtest"
)

func TestPointAndUniform(t *testing.T) {
	d, err := prob.Point(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d.P(2) != 1 || d.P(0) != 0 {
		t.Fatalf("Point = %v", d.Probs())
	}
	if _, err := prob.Point(4, 4); err == nil {
		t.Fatal("Point outside support succeeded")
	}
	if _, err := prob.Point(0, 0); err == nil {
		t.Fatal("Point with empty support succeeded")
	}

	u, err := probtest.Uniform(5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if math.Abs(u.P(i)-0.2) > 1e-15 {
			t.Fatalf("probtest.Uniform(5).P(%d) = %v", i, u.P(i))
		}
	}
	if _, err := probtest.Uniform(0); err == nil {
		t.Fatal("probtest.Uniform(0) succeeded")
	}
}

func TestTV(t *testing.T) {
	a, _ := prob.NewDist([]float64{1, 0})
	b, _ := prob.NewDist([]float64{0, 1})
	tv, err := probtest.TV(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tv-1) > 1e-15 {
		t.Fatalf("TV of disjoint points = %v", tv)
	}
	tv, _ = probtest.TV(a, a)
	if tv != 0 {
		t.Fatalf("probtest.TV(a,a) = %v", tv)
	}
	c, _ := probtest.Uniform(3)
	if _, err := probtest.TV(a, c); err == nil {
		t.Fatal("TV across support sizes succeeded")
	}
}

func TestEmpirical(t *testing.T) {
	d, err := probtest.Empirical([]int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.P(1)-0.75) > 1e-15 {
		t.Fatalf("Empirical = %v", d.Probs())
	}
	if _, err := probtest.Empirical([]int{-1, 2}); err == nil {
		t.Fatal("Empirical with negative count succeeded")
	}
}

func TestBinomialPMF(t *testing.T) {
	d, err := probtest.BinomialPMF(4, 0.5)
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

	d0, _ := probtest.BinomialPMF(10, 0)
	if d0.P(0) != 1 {
		t.Fatalf("Binomial(10,0) = %v", d0.Probs())
	}
	d1, _ := probtest.BinomialPMF(10, 1)
	if d1.P(10) != 1 {
		t.Fatalf("Binomial(10,1) = %v", d1.Probs())
	}
	if _, err := probtest.BinomialPMF(-1, 0.5); err == nil {
		t.Fatal("negative n succeeded")
	}
	if _, err := probtest.BinomialPMF(3, 1.5); err == nil {
		t.Fatal("p>1 succeeded")
	}
}

func TestBinomialLargeNStable(t *testing.T) {
	d, err := probtest.BinomialPMF(500, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.Mean()-5) > 1e-6 {
		t.Fatalf("Binomial(500,0.01) mean = %v", d.Mean())
	}
}
