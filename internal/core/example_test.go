package core_test

import (
	"fmt"
	"log"
	"math"

	"broadcastic/internal/andk"
	"broadcastic/internal/core"
	"broadcastic/internal/dist"
	"broadcastic/internal/rng"
)

// Estimate the conditional information cost of the sequential AND_k
// protocol at k = 64, far past exact enumeration, under the Section 4.1
// hard distribution μ. It is Θ(log k) bits, while the protocol
// communicates up to 64.
func ExampleEstimateCICOpts() {
	spec, err := andk.NewSequential(64) // the O(log k)-information protocol
	if err != nil {
		log.Fatal(err)
	}
	mu, err := dist.NewMu(64) // Section 4.1 hard distribution
	if err != nil {
		log.Fatal(err)
	}
	// Workers: 0 is one worker per CPU; the estimate is the same at any count.
	est, err := core.EstimateCICOpts(spec, mu, rng.New(1), 20000, core.EstimateOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("CIC ≈ %.4f ± %.4f bits\n", est.Mean, est.StdErr)
	// Output:
	// CIC ≈ 2.6830 ± 0.0199 bits
}

// Walk through the Section 4.1 proof numerically. Take the sequential
// AND_k protocol at k = 8, enumerate its complete transcript tree under
// the hard distribution μ, and print the proof's own objects: the Lemma 3
// q-factors, the α_i coefficients and Lemma 4 posteriors, the
// good-transcript decomposition of Lemma 5, and the resulting conditional
// information cost against the Ω(log k) target.
func Example_lowerbound() {
	const k = 8
	spec, err := andk.NewSequential(k)
	if err != nil {
		log.Fatal(err)
	}
	mu, err := dist.NewMu(k)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("AND_%d, sequential protocol, hard distribution μ (Section 4.1)\n\n", k)

	leaves, err := core.EnumerateTranscripts(spec, core.TreeLimits{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("complete transcripts: %d (the prefix-free set 0, 10, ..., 1^%d)\n\n", len(leaves), k)

	fmt.Println("Per-transcript pointing (Lemma 4): α_i = q_{i,0}/q_{i,1} and the")
	fmt.Println("posterior Pr[X_i = 0 | Π = ℓ, Z ≠ i] = α/(α+k−1):")
	for _, leaf := range leaves {
		alphas, err := core.Alphas(leaf)
		if err != nil {
			log.Fatal(err)
		}
		maxAlpha, argmax := math.Inf(-1), -1
		for i, a := range alphas {
			if a > maxAlpha {
				maxAlpha, argmax = a, i
			}
		}
		pi2, err := core.SliceTranscriptProb(leaf, 2)
		if err != nil {
			log.Fatal(err)
		}
		post := core.PosteriorZeroGivenNotSpecial(maxAlpha, k)
		fmt.Printf("  ℓ=%-18s π₂(ℓ)=%6.4f  out=%d  max α at player %d (α=%v)  posterior=%5.3f\n",
			leaf.Transcript.String(), pi2, leaf.Output, argmax, maxAlpha, post)
	}

	report, err := core.AnalyzeGoodTranscripts(leaves, 20, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nLemma 5 decomposition of π₂ mass:")
	fmt.Printf("  B₁ (wrong output on X₂):        %6.4f\n", report.MassB1)
	fmt.Printf("  B₀ (fails likelihood test):     %6.4f\n", report.MassB0)
	fmt.Printf("  L' (good, prefers X₂ over X₃):  %6.4f\n", report.MassLPrime)
	fmt.Printf("  pointed (some α_i ≥ k):         %6.4f\n", report.MassPointed)

	costs, err := core.ExactCosts(spec, mu, core.TreeLimits{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nThe chain the proof follows: pointed mass × (p·log k − 1) lower-bounds")
	fmt.Println("the information cost (Eq. 3–4 + Lemma 2):")
	fmt.Printf("  CIC = I(Π; X | Z)  = %6.4f bits (exact)\n", costs.CIC)
	fmt.Printf("  IC  = I(Π; X)      = %6.4f bits (exact)\n", costs.ExternalIC)
	fmt.Printf("  log₂ k reference   = %6.4f bits\n", math.Log2(k))
	fmt.Printf("  worst-case CC      = %d bits → gap CC/IC = %.2f (k/log₂k = %.2f)\n",
		costs.WorstCaseBits,
		float64(costs.WorstCaseBits)/costs.ExternalIC,
		float64(k)/math.Log2(k))
	// Output:
	// AND_8, sequential protocol, hard distribution μ (Section 4.1)
	//
	// complete transcripts: 9 (the prefix-free set 0, 10, ..., 1^8)
	//
	// Per-transcript pointing (Lemma 4): α_i = q_{i,0}/q_{i,1} and the
	// posterior Pr[X_i = 0 | Π = ℓ, Z ≠ i] = α/(α+k−1):
	//   ℓ=0                  π₂(ℓ)=0.2500  out=0  max α at player 0 (α=+Inf)  posterior=1.000
	//   ℓ=1.0                π₂(ℓ)=0.2143  out=0  max α at player 1 (α=+Inf)  posterior=1.000
	//   ℓ=1.1.0              π₂(ℓ)=0.1786  out=0  max α at player 2 (α=+Inf)  posterior=1.000
	//   ℓ=1.1.1.0            π₂(ℓ)=0.1429  out=0  max α at player 3 (α=+Inf)  posterior=1.000
	//   ℓ=1.1.1.1.0          π₂(ℓ)=0.1071  out=0  max α at player 4 (α=+Inf)  posterior=1.000
	//   ℓ=1.1.1.1.1.0        π₂(ℓ)=0.0714  out=0  max α at player 5 (α=+Inf)  posterior=1.000
	//   ℓ=1.1.1.1.1.1.0      π₂(ℓ)=0.0357  out=0  max α at player 6 (α=+Inf)  posterior=1.000
	//   ℓ=1.1.1.1.1.1.1.0    π₂(ℓ)=0.0000  out=0  max α at player 7 (α=+Inf)  posterior=1.000
	//   ℓ=1.1.1.1.1.1.1.1    π₂(ℓ)=0.0000  out=1  max α at player 0 (α=0)  posterior=0.000
	//
	// Lemma 5 decomposition of π₂ mass:
	//   B₁ (wrong output on X₂):        0.0000
	//   B₀ (fails likelihood test):     0.0000
	//   L' (good, prefers X₂ over X₃):  1.0000
	//   pointed (some α_i ≥ k):         1.0000
	//
	// The chain the proof follows: pointed mass × (p·log k − 1) lower-bounds
	// the information cost (Eq. 3–4 + Lemma 2):
	//   CIC = I(Π; X | Z)  = 1.4942 bits (exact)
	//   IC  = I(Π; X)      = 2.8311 bits (exact)
	//   log₂ k reference   = 3.0000 bits
	//   worst-case CC      = 8 bits → gap CC/IC = 2.83 (k/log₂k = 2.67)
}
