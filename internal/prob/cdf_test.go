package prob

// Equivalence tests for the cached-CDF sampling path. The product
// guarantee is bit-identical experiment output, so the cached sampler is
// only admissible if it returns the *same index* as the linear scan for
// every uniform draw — including draws that land exactly on a prefix-sum
// boundary, distributions with zero-mass cells, and tails so small they
// are denormal. These tests drive both paths with crafted u values
// directly (bypassing the RNG) to hit those corners deterministically.

import (
	"math"
	"testing"

	"broadcastic/internal/rng"
)

// adversarialDists builds supports that stress the boundary behavior of
// the prefix-sum search. Most are smaller than cdfMinSize, so the cached
// path is forced with Cached(); none need to sum exactly to 1 —
// sampleIndex only ever compares against in-order partial sums, and
// crafting unnormalized vectors lets us place boundaries at exactly
// representable values.
func adversarialDists() map[string]Dist {
	denormal := math.SmallestNonzeroFloat64 // 5e-324
	return map[string]Dist{
		"uniform16":   distFromOwned(uniformVec(16)).Cached(),
		"uniform9":    distFromOwned(uniformVec(9)).Cached(), // odd length: uneven halving
		"uniform-big": distFromOwned(uniformVec(cdfMinSize + 3)),
		"dyadic": distFromOwned([]float64{ // exact boundaries at 0.5, 0.75, ...
			0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625, 0.0078125, 0.0078125,
		}).Cached(),
		"zero-mass-cells": distFromOwned([]float64{
			0, 0.25, 0, 0, 0.5, 0, 0.25, 0, 0, 0,
		}).Cached(),
		"leading-zeros": distFromOwned([]float64{0, 0, 0, 0, 0, 0, 0, 1}).Cached(),
		"trailing-zeros": distFromOwned([]float64{
			0.5, 0.5, 0, 0, 0, 0, 0, 0,
		}).Cached(),
		"denormal-tail": distFromOwned([]float64{
			0.5, 0.5 - 1e-300, 1e-300, denormal, denormal, denormal, denormal, denormal,
		}).Cached(),
		"all-denormal": distFromOwned([]float64{
			denormal, denormal, denormal, denormal,
			denormal, denormal, denormal, denormal,
		}).Cached(),
		"mass-short-of-one": distFromOwned([]float64{ // u can exceed the total
			0.125, 0.125, 0.125, 0.125, 0.125, 0.125, 0.125, 0.124,
		}).Cached(),
		"single-spike": distFromOwned(spikeVec(64, 17)).Cached(),
	}
}

func uniformVec(n int) []float64 {
	p := make([]float64, n)
	for i := range p {
		p[i] = 1 / float64(n)
	}
	return p
}

func spikeVec(n, at int) []float64 {
	p := make([]float64, n)
	p[at] = 1
	return p
}

// boundaryDraws returns the adversarial u values for a distribution: every
// prefix sum exactly, one ulp below and above it, plus the global corners.
func boundaryDraws(d Dist) []float64 {
	us := []float64{
		0,
		math.SmallestNonzeroFloat64,
		0.5,
		math.Nextafter(1, 0), // largest value Float64 can return is below 1
	}
	acc := 0.0
	for _, v := range d.p {
		acc += v
		for _, u := range []float64{acc, math.Nextafter(acc, 0), math.Nextafter(acc, 2)} {
			if u >= 0 && u < 1 {
				us = append(us, u)
			}
		}
	}
	return us
}

func TestCachedCDFMatchesLinearScanOnBoundaries(t *testing.T) {
	for name, d := range adversarialDists() {
		if d.cdf == nil {
			t.Fatalf("%s: expected cached path (size %d, Cached() forced)", name, d.Size())
		}
		for _, u := range boundaryDraws(d) {
			want := d.sampleIndexLinear(u)
			got := d.sampleIndex(u)
			if got != want {
				t.Errorf("%s: sampleIndex(%v) = %d, linear scan = %d", name, u, got, want)
			}
		}
	}
}

func TestCachedCDFMatchesLinearScanRandomized(t *testing.T) {
	src := rng.New(1234)
	for name, d := range adversarialDists() {
		for i := 0; i < 5000; i++ {
			u := src.Float64()
			if got, want := d.sampleIndex(u), d.sampleIndexLinear(u); got != want {
				t.Fatalf("%s: sampleIndex(%v) = %d, linear scan = %d", name, u, got, want)
			}
		}
	}
	// Random normalized distributions with random zero-mass cells.
	for trial := 0; trial < 200; trial++ {
		n := cdfMinSize + src.Intn(120)
		w := make([]float64, n)
		for i := range w {
			if src.Bernoulli(0.3) {
				continue // zero-mass cell
			}
			w[i] = src.Float64()
		}
		w[src.Intn(n)] = 1 // ensure positive total mass
		d, err := Normalize(w)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			u := src.Float64()
			if got, want := d.sampleIndex(u), d.sampleIndexLinear(u); got != want {
				t.Fatalf("trial %d: sampleIndex(%v) = %d, linear = %d", trial, u, got, want)
			}
		}
	}
}

// TestSampleStreamIdenticalCachedVsUncached pins the end-to-end contract:
// the same RNG stream produces the same outcome sequence whether or not
// the CDF cache is active, so enabling it cannot perturb any pinned
// experiment output.
func TestSampleStreamIdenticalCachedVsUncached(t *testing.T) {
	d := distFromOwned(uniformVec(37)).Cached() // 37 < cdfMinSize: force the table path
	if d.cdf == nil {
		t.Fatal("Cached copy missing the CDF cache")
	}
	plain := d.Uncached()
	if plain.cdf != nil {
		t.Fatal("Uncached copy still carries a CDF cache")
	}
	a, b := rng.New(7), rng.New(7)
	for i := 0; i < 10000; i++ {
		x, y := d.Sample(a), plain.Sample(b)
		if x != y {
			t.Fatalf("draw %d: cached %d, uncached %d", i, x, y)
		}
	}
}

func TestCDFCacheThreshold(t *testing.T) {
	small := distFromOwned(uniformVec(cdfMinSize - 1))
	if small.cdf != nil {
		t.Fatalf("size %d carries a cache; threshold is %d", small.Size(), cdfMinSize)
	}
	big := distFromOwned(uniformVec(cdfMinSize))
	if big.cdf == nil {
		t.Fatalf("size %d missing cache", big.Size())
	}
	if big.cdf.cum != nil {
		t.Fatal("prefix-sum table built eagerly; want lazy build on first Sample")
	}
	big.Sample(rng.New(1))
	if big.cdf.cum == nil {
		t.Fatal("prefix-sum table not built by first Sample")
	}
	if got := big.cdf.last; got != big.Size()-1 {
		t.Fatalf("fallback index = %d, want %d", got, big.Size()-1)
	}
}

func TestProbsInto(t *testing.T) {
	d, err := NewDist([]float64{0.25, 0.5, 0.25})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]float64, 0, 8)
	out := d.ProbsInto(buf)
	if &out[0] != &buf[:1][0] {
		t.Fatal("ProbsInto did not reuse the provided backing array")
	}
	for i, v := range d.Probs() {
		if out[i] != v {
			t.Fatalf("ProbsInto[%d] = %v, want %v", i, out[i], v)
		}
	}
	// Undersized scratch still works (grows).
	short := d.ProbsInto(nil)
	if len(short) != d.Size() {
		t.Fatalf("ProbsInto(nil) len = %d, want %d", len(short), d.Size())
	}
}
