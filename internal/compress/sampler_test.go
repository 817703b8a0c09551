package compress

import (
	"math"
	"testing"

	"broadcastic/internal/info"
	"broadcastic/internal/prob"
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

func TestTransmitProducesEta(t *testing.T) {
	// The transmitted value must be distributed exactly as η regardless of
	// the prior ν.
	public := rng.New(401)
	eta := mustDist(t, []float64{0.6, 0.1, 0.3})
	nu := mustDist(t, []float64{0.2, 0.5, 0.3})
	const trials = 30000
	counts := make([]int, 3)
	for i := 0; i < trials; i++ {
		res, err := NewTransmitter().Transmit(eta, nu, public)
		if err != nil {
			t.Fatal(err)
		}
		counts[res.Value]++
	}
	for x := 0; x < 3; x++ {
		got := float64(counts[x]) / trials
		if math.Abs(got-eta.P(x)) > 0.015 {
			t.Fatalf("value %d frequency %v, want %v", x, got, eta.P(x))
		}
	}
}

func TestTransmitCostTracksDivergence(t *testing.T) {
	// E10 at test scale: mean bits ≤ D(η‖ν) + 2·log(D+2) + c for a
	// moderate constant c, and the cost grows with the divergence.
	public := rng.New(402)
	const trials = 4000
	var prevMean float64
	for _, skew := range []float64{0.3, 0.03, 0.003} {
		// η concentrated on outcome 0, ν spreading mass away from it.
		eta := mustDist(t, []float64{0.97, 0.03})
		nu := mustDist(t, []float64{skew, 1 - skew})
		d, err := info.KL(eta, nu)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for i := 0; i < trials; i++ {
			res, err := NewTransmitter().Transmit(eta, nu, public)
			if err != nil {
				t.Fatal(err)
			}
			total += res.Bits
		}
		mean := float64(total) / trials
		if mean > CostModel(d, 8) {
			t.Fatalf("skew %v: mean bits %v exceeds model %v (D=%v)", skew, mean, CostModel(d, 8), d)
		}
		if mean <= prevMean {
			t.Fatalf("cost not increasing with divergence: %v after %v", mean, prevMean)
		}
		prevMean = mean
	}
}

func TestTransmitCheapWhenPriorMatches(t *testing.T) {
	// η = ν: divergence 0, so the cost should be a small constant.
	public := rng.New(403)
	d := mustDist(t, []float64{0.25, 0.25, 0.25, 0.25})
	const trials = 2000
	total := 0
	for i := 0; i < trials; i++ {
		res, err := NewTransmitter().Transmit(d, d, public)
		if err != nil {
			t.Fatal(err)
		}
		total += res.Bits
		if res.LogRatio > 0 {
			t.Fatalf("log ratio %d > 0 for identical distributions", res.LogRatio)
		}
	}
	if mean := float64(total) / trials; mean > 8 {
		t.Fatalf("mean cost %v for zero divergence", mean)
	}
}

func TestTransmitValidation(t *testing.T) {
	eta := mustDist(t, []float64{1, 0})
	nu2 := mustDist(t, []float64{0, 1})
	nu3 := mustDist(t, []float64{0.5, 0.25, 0.25})
	if _, err := NewTransmitter().Transmit(eta, nu2, rng.New(1)); err == nil {
		t.Fatal("non-dominating prior succeeded")
	}
	if _, err := NewTransmitter().Transmit(eta, nu3, rng.New(1)); err == nil {
		t.Fatal("support mismatch succeeded")
	}
	if _, err := NewTransmitter().Transmit(eta, eta, nil); err == nil {
		t.Fatal("nil public randomness succeeded")
	}
}

func TestTransmitDeterministicGivenSeed(t *testing.T) {
	eta := mustDist(t, []float64{0.7, 0.3})
	nu := mustDist(t, []float64{0.4, 0.6})
	a, err := NewTransmitter().Transmit(eta, nu, rng.New(99))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewTransmitter().Transmit(eta, nu, rng.New(99))
	if err != nil {
		t.Fatal(err)
	}
	if a.Value != b.Value || a.Bits != b.Bits {
		t.Fatalf("same seed produced different transmissions: %+v vs %+v", a, b)
	}
}

func TestCostModelMonotone(t *testing.T) {
	if CostModel(-1, 0) != CostModel(0, 0) {
		t.Fatal("negative divergence not clamped")
	}
	if CostModel(10, 1) <= CostModel(1, 1) {
		t.Fatal("cost model not increasing")
	}
}

func TestSimulatedProductTransmitValidation(t *testing.T) {
	if _, err := SimulatedProductTransmit([]float64{0}, nil); err == nil {
		t.Fatal("nil source succeeded")
	}
	if _, err := SimulatedProductTransmit([]float64{math.Inf(1)}, rng.New(1)); err == nil {
		t.Fatal("infinite log ratio succeeded")
	}
	if _, err := SimulatedProductTransmit([]float64{math.NaN()}, rng.New(1)); err == nil {
		t.Fatal("NaN log ratio succeeded")
	}
}

func TestSimulatedProductTransmitLargeS(t *testing.T) {
	// A huge combined divergence is handled without materializing 2^s
	// candidates: the rank field costs s bits.
	res, err := SimulatedProductTransmit([]float64{100}, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.LogRatio != 100 {
		t.Fatalf("log ratio %d, want 100", res.LogRatio)
	}
	if res.Bits < 100 || res.Bits > 130 {
		t.Fatalf("bits %d for s=100 outside [100,130]", res.Bits)
	}
	if res.CandidateCount != -1 {
		t.Fatalf("candidate count %d, want -1 sentinel", res.CandidateCount)
	}
}

func TestSimulatedProductTransmitCost(t *testing.T) {
	// Mean simulated cost for total log-ratio S must be S + O(log S).
	src := rng.New(404)
	const trials = 4000
	for _, s := range []float64{0, 2, 6, 10} {
		total := 0
		for i := 0; i < trials; i++ {
			res, err := SimulatedProductTransmit([]float64{s}, src)
			if err != nil {
				t.Fatal(err)
			}
			total += res.Bits
		}
		mean := float64(total) / trials
		if mean > CostModel(s, 8) {
			t.Fatalf("s=%v: mean %v exceeds model %v", s, mean, CostModel(s, 8))
		}
		if mean < s {
			t.Fatalf("s=%v: mean %v below the divergence itself", s, mean)
		}
	}
}

func TestSimulatedProductAmortizesOverhead(t *testing.T) {
	// Splitting total divergence S across n copies in ONE transmission must
	// cost far less than n separate transmissions of S/n each.
	src := rng.New(405)
	const trials = 2000
	const n = 16
	const perCopy = 0.5
	combined := 0
	separate := 0
	ratios := make([]float64, n)
	for i := range ratios {
		ratios[i] = perCopy
	}
	for i := 0; i < trials; i++ {
		res, err := SimulatedProductTransmit(ratios, src)
		if err != nil {
			t.Fatal(err)
		}
		combined += res.Bits
		for c := 0; c < n; c++ {
			r, err := SimulatedProductTransmit(ratios[:1], src)
			if err != nil {
				t.Fatal(err)
			}
			separate += r.Bits
		}
	}
	if combined >= separate {
		t.Fatalf("combined %d bits not below separate %d bits", combined, separate)
	}
	// The combined cost per copy should approach perCopy + o(1), i.e. be
	// below half the separate per-copy cost at this scale.
	if float64(combined) > 0.5*float64(separate) {
		t.Fatalf("amortization too weak: combined %d vs separate %d", combined, separate)
	}
}

func TestPoissonMoments(t *testing.T) {
	src := rng.New(406)
	for _, mean := range []float64{0.5, 4, 32, 200} {
		const trials = 50000
		var sum float64
		for i := 0; i < trials; i++ {
			sum += float64(poisson(src, mean))
		}
		got := sum / trials
		if math.Abs(got-mean) > 0.05*mean+0.05 {
			t.Fatalf("poisson(%v) mean = %v", mean, got)
		}
	}
	if poisson(rng.New(1), 0) != 0 {
		t.Fatal("poisson(0) nonzero")
	}
}

func TestSimulatedMatchesExactSamplerCost(t *testing.T) {
	// DESIGN.md's promised validation: the product-space simulation must
	// agree in mean cost with the explicit Lemma 7 sampler when both face
	// the same message distributions. We transmit single messages from a
	// 16-outcome (η, ν) pair with the exact sampler, and feed the realized
	// log-ratios of the same draws to the simulation.
	etaW := make([]float64, 16)
	nuW := make([]float64, 16)
	src := rng.New(407)
	for i := range etaW {
		etaW[i] = src.Float64() + 0.02
		nuW[i] = src.Float64() + 0.02
	}
	// Skew η toward outcome 0 so the divergence is nontrivial.
	etaW[0] += 6
	eta, err := prob.Normalize(etaW)
	if err != nil {
		t.Fatal(err)
	}
	nu, err := prob.Normalize(nuW)
	if err != nil {
		t.Fatal(err)
	}
	const trials = 6000
	public := rng.New(408)
	sim := rng.New(409)
	var exactBits, simBits float64
	for i := 0; i < trials; i++ {
		res, err := NewTransmitter().Transmit(eta, nu, public)
		if err != nil {
			t.Fatal(err)
		}
		exactBits += float64(res.Bits)
		x := eta.Sample(sim)
		lr := math.Log2(eta.P(x) / nu.P(x))
		sres, err := SimulatedProductTransmit([]float64{lr}, sim)
		if err != nil {
			t.Fatal(err)
		}
		simBits += float64(sres.Bits)
	}
	exactMean := exactBits / trials
	simMean := simBits / trials
	if math.Abs(exactMean-simMean) > 1.5 {
		t.Fatalf("exact mean %v vs simulated mean %v differ by more than 1.5 bits",
			exactMean, simMean)
	}
}
