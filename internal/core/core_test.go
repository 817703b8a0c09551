package core_test

import (
	"errors"
	"math"
	"testing"

	"broadcastic/internal/andk"
	"broadcastic/internal/andk/andktest"
	"broadcastic/internal/core"
	"broadcastic/internal/core/coretest"
	"broadcastic/internal/dist"
	"broadcastic/internal/prob"
	"broadcastic/internal/rng"
)

// uniformPrior is a k-player product prior with uniform bits and a trivial
// auxiliary variable.
func uniformPrior(t *testing.T, k int) *dist.ProductPrior {
	t.Helper()
	marginals := make([]prob.Dist, k)
	for i := range marginals {
		d, err := prob.Bernoulli(0.5)
		if err != nil {
			t.Fatal(err)
		}
		marginals[i] = d
	}
	p, err := dist.NewProductPrior(marginals)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestEnumerateSequentialAND(t *testing.T) {
	// The sequential AND_k protocol has exactly k+1 transcripts:
	// 0, 10, 110, ..., 1^{k-1}0, 1^k.
	for _, k := range []int{1, 2, 3, 5, 8} {
		spec, err := andk.NewSequential(k)
		if err != nil {
			t.Fatal(err)
		}
		leaves, err := core.EnumerateTranscripts(spec, core.TreeLimits{})
		if err != nil {
			t.Fatal(err)
		}
		if len(leaves) != k+1 {
			t.Fatalf("k=%d: %d transcripts, want %d", k, len(leaves), k+1)
		}
		for _, leaf := range leaves {
			if leaf.Bits != len(leaf.Transcript) {
				t.Fatalf("bits %d != transcript length %d", leaf.Bits, len(leaf.Transcript))
			}
		}
	}
}

func TestLeafQFactorsMatchDirectProbability(t *testing.T) {
	// For each leaf and each input, Π_i Q[i][x_i] must equal the true
	// execution probability (here: 1 if the deterministic run produces the
	// transcript, else 0).
	spec, _ := andk.NewSequential(3)
	leaves, err := core.EnumerateTranscripts(spec, core.TreeLimits{})
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range coretest.AllBinaryInputs(3) {
		matches := 0
		for _, leaf := range leaves {
			p, err := leaf.ProbGivenInput(x)
			if err != nil {
				t.Fatal(err)
			}
			if p != 0 && p != 1 {
				t.Fatalf("deterministic protocol has fractional leaf prob %v", p)
			}
			if p == 1 {
				matches++
				// Verify the transcript really is the run on x.
				want := runSequential(x)
				if len(want) != len(leaf.Transcript) {
					t.Fatalf("input %v matched transcript %v, want %v", x, leaf.Transcript, want)
				}
				for i := range want {
					if want[i] != leaf.Transcript[i] {
						t.Fatalf("input %v matched transcript %v, want %v", x, leaf.Transcript, want)
					}
				}
			}
		}
		if matches != 1 {
			t.Fatalf("input %v matches %d transcripts, want exactly 1", x, matches)
		}
	}
}

func runSequential(x []int) []int {
	var t []int
	for _, v := range x {
		t = append(t, v)
		if v == 0 {
			break
		}
	}
	return t
}

func TestExactCostsUniformBroadcastAll(t *testing.T) {
	// BroadcastAll on uniform independent bits reveals everything:
	// I(Π; X) = H(X) = k bits, and communication is exactly k.
	const k = 4
	spec, _ := andk.NewBroadcastAll(k)
	prior := uniformPrior(t, k)
	report, err := core.ExactCosts(spec, prior, core.TreeLimits{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(report.CIC-float64(k)) > 1e-9 {
		t.Fatalf("CIC = %v, want %d", report.CIC, k)
	}
	if math.Abs(report.ExternalIC-float64(k)) > 1e-9 {
		t.Fatalf("ExternalIC = %v, want %d", report.ExternalIC, k)
	}
	if report.WorstCaseBits != k {
		t.Fatalf("WorstCaseBits = %d, want %d", report.WorstCaseBits, k)
	}
	if math.Abs(report.ExpectedBits-float64(k)) > 1e-9 {
		t.Fatalf("ExpectedBits = %v, want %d", report.ExpectedBits, k)
	}
	if report.NumTranscripts != 1<<k {
		t.Fatalf("NumTranscripts = %d, want %d", report.NumTranscripts, 1<<k)
	}
}

func TestExactCICMatchesJointCrossCheck(t *testing.T) {
	// The factored CIC computation must agree with the brute-force joint
	// computation on every protocol/prior pair we can enumerate.
	mu4, err := dist.NewMu(4)
	if err != nil {
		t.Fatal(err)
	}
	specs := map[string]core.Spec{}
	seq, _ := andk.NewSequential(4)
	specs["sequential"] = seq
	all, _ := andk.NewBroadcastAll(4)
	specs["broadcastAll"] = all
	lazy, _ := andk.NewLazy(4, 0.3, 0)
	specs["lazy"] = lazy

	for name, spec := range specs {
		report, err := core.ExactCosts(spec, mu4, core.TreeLimits{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		joint, err := core.ExactCICJoint(spec, mu4, core.TreeLimits{})
		if err != nil {
			t.Fatalf("%s joint: %v", name, err)
		}
		if math.Abs(report.CIC-joint) > 1e-9 {
			t.Fatalf("%s: factored CIC %v != joint CIC %v", name, report.CIC, joint)
		}
	}
}

func TestExternalICAtMostEntropyOfTranscript(t *testing.T) {
	// IC(Π) = I(Π;X) <= H(Π) <= log2(#transcripts) for the sequential
	// protocol (whose transcripts form a prefix-free set of size k+1).
	const k = 6
	spec, _ := andk.NewSequential(k)
	mu, _ := dist.NewMu(k)
	report, err := core.ExactCosts(spec, mu, core.TreeLimits{})
	if err != nil {
		t.Fatal(err)
	}
	bound := math.Log2(float64(k + 1))
	if report.ExternalIC > bound+1e-9 {
		t.Fatalf("ExternalIC %v exceeds H(Π) bound %v", report.ExternalIC, bound)
	}
	if report.ExternalIC <= 0 {
		t.Fatalf("ExternalIC = %v, want positive", report.ExternalIC)
	}
}

func TestCICDominatedByExternalIC(t *testing.T) {
	// Under μ, conditioning on Z only removes information:
	// I(Π;X|Z) <= I(Π;X) + H(Z)… but more usefully here, both must be
	// nonnegative and CC must dominate both (each bit reveals at most one
	// bit). Verify IC <= expected bits.
	for _, k := range []int{3, 5, 7} {
		spec, _ := andk.NewSequential(k)
		mu, _ := dist.NewMu(k)
		report, err := core.ExactCosts(spec, mu, core.TreeLimits{})
		if err != nil {
			t.Fatal(err)
		}
		if report.CIC < 0 || report.ExternalIC < 0 {
			t.Fatalf("negative information cost: %+v", report)
		}
		if report.ExternalIC > report.ExpectedBits+1e-9 {
			t.Fatalf("k=%d: ExternalIC %v exceeds expected communication %v",
				k, report.ExternalIC, report.ExpectedBits)
		}
	}
}

func TestCICGrowsWithLogK(t *testing.T) {
	// Theorem 1's shape: CIC_μ(sequential AND_k) grows with log k.
	var prev float64
	for _, k := range []int{3, 6, 12} {
		spec, _ := andk.NewSequential(k)
		mu, _ := dist.NewMu(k)
		report, err := core.ExactCosts(spec, mu, core.TreeLimits{})
		if err != nil {
			t.Fatal(err)
		}
		if report.CIC <= prev {
			t.Fatalf("CIC not increasing: k=%d gives %v after %v", k, report.CIC, prev)
		}
		prev = report.CIC
	}
}

func TestEstimateCICMatchesExact(t *testing.T) {
	// The Monte-Carlo estimator must agree with exact enumeration within a
	// few standard errors.
	const k = 5
	spec, _ := andk.NewSequential(k)
	mu, _ := dist.NewMu(k)
	exact, err := core.ExactCosts(spec, mu, core.TreeLimits{})
	if err != nil {
		t.Fatal(err)
	}
	est, err := core.EstimateCICOpts(spec, mu, rng.New(7), 20000, core.EstimateOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(est.Mean - exact.CIC); diff > 5*est.StdErr+1e-6 {
		t.Fatalf("estimate %v ± %v vs exact %v", est.Mean, est.StdErr, exact.CIC)
	}
	if math.Abs(est.MeanBits-exact.ExpectedBits) > 0.2 {
		t.Fatalf("mean bits %v vs exact %v", est.MeanBits, exact.ExpectedBits)
	}
}

func TestEstimateCICValidation(t *testing.T) {
	spec, _ := andk.NewSequential(3)
	mu, _ := dist.NewMu(3)
	if _, err := core.EstimateCICOpts(spec, mu, nil, 10, core.EstimateOptions{Workers: 1}); err == nil {
		t.Fatal("nil source succeeded")
	}
	if _, err := core.EstimateCICOpts(spec, mu, rng.New(1), 0, core.EstimateOptions{Workers: 1}); err == nil {
		t.Fatal("zero samples succeeded")
	}
	mu4, _ := dist.NewMu(4)
	if _, err := core.EstimateCICOpts(spec, mu4, rng.New(1), 10, core.EstimateOptions{Workers: 1}); err == nil {
		t.Fatal("player-count mismatch succeeded")
	}
}

func TestOutputProbSequential(t *testing.T) {
	spec, _ := andk.NewSequential(3)
	p, err := core.OutputProb(spec, []int{1, 1, 1}, core.TreeLimits{})
	if err != nil {
		t.Fatal(err)
	}
	if p != 1 {
		t.Fatalf("Pr[output 1 | 1^k] = %v", p)
	}
	p, err = core.OutputProb(spec, []int{1, 0, 1}, core.TreeLimits{})
	if err != nil {
		t.Fatal(err)
	}
	if p != 0 {
		t.Fatalf("Pr[output 1 | 101] = %v", p)
	}
	if _, err := core.OutputProb(spec, []int{1, 1}, core.TreeLimits{}); err == nil {
		t.Fatal("short input succeeded")
	}
}

func TestWorstCaseErrorSequentialIsZero(t *testing.T) {
	spec, _ := andk.NewSequential(4)
	e, err := coretest.WorstCaseError(spec, coretest.AllBinaryInputs(4), coretest.AndFunc, core.TreeLimits{})
	if err != nil {
		t.Fatal(err)
	}
	if e != 0 {
		t.Fatalf("sequential protocol has error %v", e)
	}
}

func TestWorstCaseErrorLazy(t *testing.T) {
	// Lazy with give-up output 0 errs exactly δ on input 1^k and 0
	// elsewhere.
	const delta = 0.25
	spec, err := andk.NewLazy(4, delta, 0)
	if err != nil {
		t.Fatal(err)
	}
	e, err := coretest.WorstCaseError(spec, coretest.AllBinaryInputs(4), coretest.AndFunc, core.TreeLimits{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e-delta) > 1e-12 {
		t.Fatalf("lazy worst-case error = %v, want %v", e, delta)
	}
}

func TestTruncatedErrorsOnHiddenZero(t *testing.T) {
	// Truncated to m=2 of k=4: input with the only zero at player 3 is
	// answered 1, which is wrong.
	spec, _ := andktest.NewTruncated(4, 2)
	e, err := coretest.WorstCaseError(spec, [][]int{{1, 1, 1, 0}}, coretest.AndFunc, core.TreeLimits{})
	if err != nil {
		t.Fatal(err)
	}
	if e != 1 {
		t.Fatalf("truncated protocol error on hidden zero = %v, want 1", e)
	}
}

func TestTreeLimitsEnforced(t *testing.T) {
	spec, _ := andk.NewSequential(10)
	_, err := core.EnumerateTranscripts(spec, core.TreeLimits{MaxDepth: 3})
	if !errors.Is(err, core.ErrTreeDepth) {
		t.Fatalf("err = %v, want ErrTreeDepth", err)
	}
	_, err = core.EnumerateTranscripts(spec, core.TreeLimits{MaxLeaves: 2})
	if !errors.Is(err, core.ErrTreeLeaves) {
		t.Fatalf("err = %v, want ErrTreeLeaves", err)
	}
}

func TestSampleTranscriptDeterministicProtocol(t *testing.T) {
	spec, _ := andk.NewSequential(4)
	x := []int{1, 1, 0, 1}
	tr, leaf, err := coretest.SampleTranscript(spec, x, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 1, 0}
	if len(tr) != len(want) {
		t.Fatalf("transcript %v, want %v", tr, want)
	}
	for i := range want {
		if tr[i] != want[i] {
			t.Fatalf("transcript %v, want %v", tr, want)
		}
	}
	if leaf.Output != 0 {
		t.Fatalf("output %d, want 0", leaf.Output)
	}
	if leaf.Bits != 3 {
		t.Fatalf("bits %d, want 3", leaf.Bits)
	}
	if _, _, err := coretest.SampleTranscript(spec, []int{1}, rng.New(3)); err == nil {
		t.Fatal("short input succeeded")
	}
	if _, _, err := coretest.SampleTranscript(spec, x, nil); err == nil {
		t.Fatal("nil source succeeded")
	}
}

func TestMuNDirectSumShape(t *testing.T) {
	// Sanity for the E5 machinery: the μ^n prior plugs into ExactCosts for
	// a per-coordinate sequential DISJ spec is exercised in the disj
	// package; here check Mu^1 equals Mu.
	mu, _ := dist.NewMu(3)
	mun, err := dist.NewMuN(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := andk.NewSequential(3)
	r1, err := core.ExactCosts(spec, mu, core.TreeLimits{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := core.ExactCosts(spec, mun, core.TreeLimits{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r1.CIC-r2.CIC) > 1e-9 {
		t.Fatalf("μ CIC %v != μ^1 CIC %v", r1.CIC, r2.CIC)
	}
}

func TestTranscriptString(t *testing.T) {
	if got := (core.Transcript{}).String(); got != "ε" {
		t.Fatalf("empty transcript = %q", got)
	}
	if got := (core.Transcript{1, 0, 12}).String(); got != "1.0.12" {
		t.Fatalf("transcript string = %q", got)
	}
	if got := (core.Transcript{-3}).String(); got != "-3" {
		t.Fatalf("negative symbol string = %q", got)
	}
}
