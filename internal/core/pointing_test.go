package core_test

import (
	"math"
	"testing"

	"broadcastic/internal/andk"
	"broadcastic/internal/core"
	"broadcastic/internal/dist"
	"broadcastic/internal/rng"
)

func TestAlphasSequential(t *testing.T) {
	// For the sequential protocol's transcript 1^j 0 (first zero at player
	// j): players before j have α = 0 (they revealed a one), player j has
	// α = +Inf (revealed a zero), later players have α = 1 (silent).
	const k = 4
	spec, _ := andk.NewSequential(k)
	leaves, err := core.EnumerateTranscripts(spec, core.TreeLimits{})
	if err != nil {
		t.Fatal(err)
	}
	for _, leaf := range leaves {
		alphas, err := core.Alphas(leaf)
		if err != nil {
			t.Fatal(err)
		}
		last := len(leaf.Transcript) - 1
		allOnes := leaf.Transcript[last] == 1
		for i, a := range alphas {
			switch {
			case i < last || (allOnes && i <= last):
				if a != 0 {
					t.Fatalf("transcript %v: player %d α=%v, want 0", leaf.Transcript, i, a)
				}
			case i == last: // wrote the zero
				if !math.IsInf(a, 1) {
					t.Fatalf("transcript %v: zero-writer α=%v, want +Inf", leaf.Transcript, a)
				}
			default: // never spoke
				if a != 1 {
					t.Fatalf("transcript %v: silent player %d α=%v, want 1", leaf.Transcript, i, a)
				}
			}
		}
	}
}

func TestPosteriorZeroFormulaMatchesBayes(t *testing.T) {
	// E9: Lemma 4's closed form α/(α+k−1) must equal the posterior computed
	// directly from Bayes' rule under μ conditioned on Z ≠ i. We check it
	// on the Lazy protocol, whose transcripts mix deterministic and random
	// moves.
	const k = 5
	spec, err := andk.NewLazy(k, 0.2, 0)
	if err != nil {
		t.Fatal(err)
	}
	mu, err := dist.NewMu(k)
	if err != nil {
		t.Fatal(err)
	}
	leaves, err := core.EnumerateTranscripts(spec, core.TreeLimits{})
	if err != nil {
		t.Fatal(err)
	}
	for _, leaf := range leaves {
		alphas, err := core.Alphas(leaf)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < k; i++ {
			// Direct Bayes: Pr[X_i=0 | Π=ℓ, Z≠i]
			//   ∝ Σ_{z≠i} Pr[z] Pr[X_i=0|z] q_{i,0} Π_{j≠i} Σ_v Pr[X_j=v|z] q_{j,v}.
			num, den := 0.0, 0.0
			for z := 0; z < k; z++ {
				if z == i {
					continue
				}
				pz := mu.AuxProb(z)
				rest := 1.0
				for j := 0; j < k; j++ {
					if j == i {
						continue
					}
					dj, err := mu.PlayerDist(z, j)
					if err != nil {
						t.Fatal(err)
					}
					rest *= dj.P(0)*leaf.Q[j][0] + dj.P(1)*leaf.Q[j][1]
				}
				di, err := mu.PlayerDist(z, i)
				if err != nil {
					t.Fatal(err)
				}
				num += pz * rest * di.P(0) * leaf.Q[i][0]
				den += pz * rest * (di.P(0)*leaf.Q[i][0] + di.P(1)*leaf.Q[i][1])
			}
			if den == 0 {
				continue // transcript unreachable when Z ≠ i
			}
			bayes := num / den
			formula := core.PosteriorZeroGivenNotSpecial(alphas[i], k)
			if math.Abs(bayes-formula) > 1e-9 {
				t.Fatalf("transcript %v player %d: Bayes %v vs Lemma 4 formula %v",
					leaf.Transcript, i, bayes, formula)
			}
		}
	}
}

func TestPosteriorZeroEdgeCases(t *testing.T) {
	if got := core.PosteriorZeroGivenNotSpecial(math.Inf(1), 10); got != 1 {
		t.Fatalf("posterior at α=+Inf = %v", got)
	}
	if got := core.PosteriorZeroGivenNotSpecial(0, 10); got != 0 {
		t.Fatalf("posterior at α=0 = %v", got)
	}
	if !math.IsNaN(core.PosteriorZeroGivenNotSpecial(-1, 10)) {
		t.Fatal("negative α did not produce NaN")
	}
	if !math.IsNaN(core.PosteriorZeroGivenNotSpecial(1, 1)) {
		t.Fatal("k=1 did not produce NaN")
	}
	// α = k-1 gives posterior 1/2.
	if got := core.PosteriorZeroGivenNotSpecial(9, 10); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("posterior at α=k-1 = %v, want 0.5", got)
	}
}

func TestSliceTranscriptProbSumsToOne(t *testing.T) {
	// π_c is a distribution over transcripts for each c: Σ_ℓ π_c(ℓ) = 1.
	for _, k := range []int{3, 5, 7} {
		spec, _ := andk.NewSequential(k)
		leaves, err := core.EnumerateTranscripts(spec, core.TreeLimits{})
		if err != nil {
			t.Fatal(err)
		}
		for c := 1; c <= 3 && c <= k; c++ {
			total := 0.0
			for _, leaf := range leaves {
				p, err := core.SliceTranscriptProb(leaf, c)
				if err != nil {
					t.Fatal(err)
				}
				total += p
			}
			if math.Abs(total-1) > 1e-9 {
				t.Fatalf("k=%d c=%d: π_c sums to %v", k, c, total)
			}
		}
	}
}

func TestSliceTranscriptProbAgainstBruteForce(t *testing.T) {
	// Cross-check the DP against explicit enumeration of zero-sets.
	const k = 5
	spec, err := andk.NewLazy(k, 0.3, 1)
	if err != nil {
		t.Fatal(err)
	}
	leaves, err := core.EnumerateTranscripts(spec, core.TreeLimits{})
	if err != nil {
		t.Fatal(err)
	}
	for _, leaf := range leaves {
		for c := 0; c <= k; c++ {
			dp, err := core.SliceTranscriptProb(leaf, c)
			if err != nil {
				t.Fatal(err)
			}
			brute := bruteSliceProb(t, leaf, c)
			if math.Abs(dp-brute) > 1e-10 {
				t.Fatalf("transcript %v c=%d: DP %v vs brute %v", leaf.Transcript, c, dp, brute)
			}
		}
	}
	if _, err := core.SliceTranscriptProb(leaves[0], -1); err == nil {
		t.Fatal("negative c succeeded")
	}
	if _, err := core.SliceTranscriptProb(leaves[0], k+1); err == nil {
		t.Fatal("c > k succeeded")
	}
}

func bruteSliceProb(t *testing.T, leaf *core.Leaf, c int) float64 {
	t.Helper()
	k := len(leaf.Q)
	sum := 0.0
	count := 0
	for mask := 0; mask < 1<<uint(k); mask++ {
		zeros := 0
		for i := 0; i < k; i++ {
			if mask>>uint(i)&1 == 1 {
				zeros++
			}
		}
		if zeros != c {
			continue
		}
		count++
		p := 1.0
		for i := 0; i < k; i++ {
			if mask>>uint(i)&1 == 1 {
				p *= leaf.Q[i][0]
			} else {
				p *= leaf.Q[i][1]
			}
		}
		sum += p
	}
	if count == 0 {
		return 0
	}
	return sum / float64(count)
}

func TestAnalyzeGoodTranscriptsSequential(t *testing.T) {
	// E8 at unit scale: the zero-error sequential protocol should have all
	// of its π_2 mass on good, pointed transcripts — every output-0
	// transcript points at its zero-writer with α = +Inf.
	const k = 8
	spec, _ := andk.NewSequential(k)
	leaves, err := core.EnumerateTranscripts(spec, core.TreeLimits{})
	if err != nil {
		t.Fatal(err)
	}
	report, err := core.AnalyzeGoodTranscripts(leaves, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if report.MassB1 != 0 {
		t.Fatalf("zero-error protocol has B1 mass %v", report.MassB1)
	}
	if math.Abs(report.MassL-1) > 1e-9 {
		t.Fatalf("L mass = %v, want 1", report.MassL)
	}
	if math.Abs(report.MassPointed-1) > 1e-9 {
		t.Fatalf("pointed mass = %v, want 1", report.MassPointed)
	}
}

func TestAnalyzeGoodTranscriptsLazyErrorShowsUp(t *testing.T) {
	// A δ chunk of π_2 mass lands on the give-up transcript; with give-up
	// output 1 it is B1 mass (wrong on two-zero inputs), bounded by the
	// Lemma 5 accounting π_2(B_1) <= δ / μ(X_2).
	const k = 6
	const delta = 0.1
	spec, err := andk.NewLazy(k, delta, 1)
	if err != nil {
		t.Fatal(err)
	}
	leaves, err := core.EnumerateTranscripts(spec, core.TreeLimits{})
	if err != nil {
		t.Fatal(err)
	}
	report, err := core.AnalyzeGoodTranscripts(leaves, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(report.MassB1-delta) > 1e-9 {
		t.Fatalf("B1 mass = %v, want %v (the give-up transcript)", report.MassB1, delta)
	}
	if report.MassPointed < 1-delta-1e-9 {
		t.Fatalf("pointed mass = %v, want >= %v", report.MassPointed, 1-delta)
	}
}

func TestAnalyzeGoodTranscriptsValidation(t *testing.T) {
	if _, err := core.AnalyzeGoodTranscripts(nil, 10, 1); err == nil {
		t.Fatal("empty leaves succeeded")
	}
	spec, _ := andk.NewSequential(3)
	leaves, _ := core.EnumerateTranscripts(spec, core.TreeLimits{})
	if _, err := core.AnalyzeGoodTranscripts(leaves, 0, 1); err == nil {
		t.Fatal("C=0 succeeded")
	}
	if _, err := core.AnalyzeGoodTranscripts(leaves, 10, 0); err == nil {
		t.Fatal("c=0 succeeded")
	}
}

func TestPointedMassImpliesInformation(t *testing.T) {
	// The chain the proof follows: pointed π_2 mass p implies
	// CIC >= (p/2)·(p_post·log k − 1) up to the conditioning constants.
	// We verify the qualitative implication: protocols whose pointing mass
	// is 1 (sequential) have CIC that exceeds that of a protocol with
	// smaller pointing mass at the same k, here the Lazy protocol which
	// wastes δ of its mass.
	const k = 8
	mu, _ := dist.NewMu(k)
	seq, _ := andk.NewSequential(k)
	lazy, _ := andk.NewLazy(k, 0.5, 0)
	seqCost, err := core.ExactCosts(seq, mu, core.TreeLimits{})
	if err != nil {
		t.Fatal(err)
	}
	lazyCost, err := core.ExactCosts(lazy, mu, core.TreeLimits{})
	if err != nil {
		t.Fatal(err)
	}
	if lazyCost.CIC >= seqCost.CIC {
		t.Fatalf("lazy CIC %v not below sequential CIC %v", lazyCost.CIC, seqCost.CIC)
	}
}

func TestEstimateCICSequentialLargeK(t *testing.T) {
	// Smoke test that the sampler handles k beyond enumeration range and
	// produces a value consistent with Θ(log k) growth.
	const k = 256
	spec, _ := andk.NewSequential(k)
	mu, _ := dist.NewMu(k)
	est, err := core.EstimateCICOpts(spec, mu, rng.New(11), 3000, core.EstimateOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if est.Mean <= 1 {
		t.Fatalf("CIC estimate at k=256 = %v, suspiciously small", est.Mean)
	}
	if est.Mean > math.Log2(float64(k+1))+3 {
		t.Fatalf("CIC estimate %v above entropy bound %v", est.Mean, math.Log2(float64(k+1)))
	}
}
