package compress

import (
	"fmt"
	"math"
	"testing"

	"broadcastic/internal/andk"
	"broadcastic/internal/core"
	"broadcastic/internal/core/coretest"
	"broadcastic/internal/disj"
	"broadcastic/internal/dist"
	"broadcastic/internal/prob"
	"broadcastic/internal/rng"
)

// RunResult reports a compressed protocol execution.
type RunResult struct {
	Transcript     core.Transcript
	Output         int
	CompressedBits int // bits used by the Lemma 7 transmissions
	OriginalBits   int // bits the uncompressed protocol would have written
	Rounds         int
}

// CompressRun executes spec on input x, transmitting every round through
// the Lemma 7 sampler instead of writing the message directly. The
// resulting transcript has exactly the distribution of the original
// protocol (the sampler is errorless), while the expected compressed cost
// tracks Σ_rounds D(η ‖ ν) = the protocol's external information cost, plus
// the per-round O(log) overhead.
func CompressRun(spec core.Spec, prior core.Prior, x []int, public *rng.Source) (*RunResult, error) {
	if len(x) != spec.NumPlayers() {
		return nil, fmt.Errorf("compress: input has %d entries, want %d", len(x), spec.NumPlayers())
	}
	obs, err := core.NewObserver(prior)
	if err != nil {
		return nil, err
	}
	var (
		t      core.Transcript
		result RunResult
		tr     Transmitter // block scratch shared by every round of this run
	)
	for step := 0; ; step++ {
		if step > 1<<16 {
			return nil, fmt.Errorf("compress: protocol exceeded %d rounds", 1<<16)
		}
		speaker, done, err := spec.NextSpeaker(t)
		if err != nil {
			return nil, err
		}
		if done {
			out, err := spec.Output(t)
			if err != nil {
				return nil, err
			}
			result.Transcript = t
			result.Output = out
			return &result, nil
		}
		eta, err := spec.MessageDist(t, speaker, x[speaker])
		if err != nil {
			return nil, err
		}
		w, err := obs.PredictMessageInto(spec, t, speaker, nil)
		if err != nil {
			return nil, err
		}
		nu, err := prob.NewDist(w)
		if err != nil {
			return nil, err
		}
		tx, err := tr.Transmit(eta, nu, public)
		if err != nil {
			return nil, fmt.Errorf("compress: round %d: %w", step, err)
		}
		symBits, err := spec.MessageBits(t, tx.Value)
		if err != nil {
			return nil, err
		}
		result.CompressedBits += tx.Bits
		result.OriginalBits += symBits
		result.Rounds++
		if err := obs.Update(spec, t, speaker, tx.Value); err != nil {
			return nil, err
		}
		t = append(t, tx.Value)
	}
}

func TestObserverPriorBeforeMessages(t *testing.T) {
	// With an empty board the posterior equals the marginal prior.
	mu, _ := dist.NewMu(4)
	obs, err := core.NewObserver(mu)
	if err != nil {
		t.Fatal(err)
	}
	post, err := obs.PlayerPosterior(0)
	if err != nil {
		t.Fatal(err)
	}
	// Marginal zero-probability under μ: Pr[X_0=0] = 1/k + (1−1/k)·(1/k)
	// (special with prob 1/k, else zero with prob 1/k).
	k := 4.0
	want := 1/k + (1-1/k)*(1/k)
	if math.Abs(post.P(0)-want) > 1e-12 {
		t.Fatalf("prior posterior P(0) = %v, want %v", post.P(0), want)
	}
	if _, err := obs.PlayerPosterior(5); err == nil {
		t.Fatal("out-of-range player succeeded")
	}
}

func TestObserverUpdateBayes(t *testing.T) {
	// After player 0 announces bit 1 in the sequential protocol, the
	// posterior of X_0 must be a point mass on 1.
	mu, _ := dist.NewMu(3)
	spec, _ := andk.NewSequential(3)
	obs, err := core.NewObserver(mu)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.Update(spec, nil, 0, 1); err != nil {
		t.Fatal(err)
	}
	post, err := obs.PlayerPosterior(0)
	if err != nil {
		t.Fatal(err)
	}
	if post.P(1) != 1 {
		t.Fatalf("posterior after announcing 1 = %v", post.Probs())
	}
	// Other players' posteriors shift too (Z is now more likely to be one
	// of them, raising their zero probability).
	post1, err := obs.PlayerPosterior(1)
	if err != nil {
		t.Fatal(err)
	}
	priorZero := 1.0/3 + (2.0/3)*(1.0/3)
	if post1.P(0) <= priorZero {
		t.Fatalf("player 1 zero-probability %v did not increase from prior %v",
			post1.P(0), priorZero)
	}
}

func TestObserverPredictMessageIsMarginal(t *testing.T) {
	// ν for the first message of the sequential protocol equals the
	// marginal distribution of X_0.
	mu, _ := dist.NewMu(4)
	spec, _ := andk.NewSequential(4)
	obs, _ := core.NewObserver(mu)
	w, err := obs.PredictMessageInto(spec, nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	nu, err := prob.NewDist(w)
	if err != nil {
		t.Fatal(err)
	}
	post, _ := obs.PlayerPosterior(0)
	for v := 0; v < 2; v++ {
		if math.Abs(nu.P(v)-post.P(v)) > 1e-12 {
			t.Fatalf("ν(%d) = %v, marginal %v", v, nu.P(v), post.P(v))
		}
	}
}

func TestCompressRunPreservesTranscriptDeterministic(t *testing.T) {
	// On a deterministic protocol the compressed run must reproduce the
	// exact transcript and output.
	mu, _ := dist.NewMu(5)
	spec, _ := andk.NewSequential(5)
	public := rng.New(411)
	x := []int{1, 1, 0, 1, 1}
	res, err := CompressRun(spec, mu, x, public)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 1, 0}
	if len(res.Transcript) != len(want) {
		t.Fatalf("transcript %v, want %v", res.Transcript, want)
	}
	for i := range want {
		if res.Transcript[i] != want[i] {
			t.Fatalf("transcript %v, want %v", res.Transcript, want)
		}
	}
	if res.Output != 0 {
		t.Fatalf("output %d, want 0", res.Output)
	}
	if res.OriginalBits != 3 || res.Rounds != 3 {
		t.Fatalf("original bits %d rounds %d, want 3,3", res.OriginalBits, res.Rounds)
	}
	if res.CompressedBits <= 0 {
		t.Fatal("compressed bits not positive")
	}
	if _, err := CompressRun(spec, mu, []int{1}, public); err == nil {
		t.Fatal("short input succeeded")
	}
}

func TestCompressRunPreservesTranscriptDistribution(t *testing.T) {
	// On a randomized protocol (Lazy), the compressed transcript
	// distribution must match the original protocol's distribution.
	const k = 3
	const delta = 0.4
	mu, _ := dist.NewMu(k)
	spec, err := andk.NewLazy(k, delta, 0)
	if err != nil {
		t.Fatal(err)
	}
	public := rng.New(412)
	direct := rng.New(413)
	const trials = 20000
	// x must lie in μ's support (the observer's Bayes prior only dominates
	// on-support messages, exactly as in the paper's model).
	x := []int{1, 0, 1}
	compGaveUp, directGaveUp := 0, 0
	for i := 0; i < trials; i++ {
		res, err := CompressRun(spec, mu, x, public)
		if err != nil {
			t.Fatal(err)
		}
		if res.Transcript[0] == 1 {
			compGaveUp++
		}
		tr, _, err := coretest.SampleTranscript(spec, x, direct)
		if err != nil {
			t.Fatal(err)
		}
		if tr[0] == 1 {
			directGaveUp++
		}
	}
	cr := float64(compGaveUp) / trials
	dr := float64(directGaveUp) / trials
	if math.Abs(cr-delta) > 0.015 {
		t.Fatalf("compressed give-up rate %v, want %v", cr, delta)
	}
	if math.Abs(cr-dr) > 0.02 {
		t.Fatalf("compressed rate %v vs direct rate %v", cr, dr)
	}
}

func TestCompressRunCostTracksInformation(t *testing.T) {
	// Mean compressed cost over μ-sampled inputs ≈ external IC + per-round
	// overhead. Verify it is within the Lemma 7 budget: IC + r·O(log).
	const k = 6
	mu, _ := dist.NewMu(k)
	spec, _ := andk.NewSequential(k)
	exact, err := core.ExactCosts(spec, mu, core.TreeLimits{})
	if err != nil {
		t.Fatal(err)
	}
	sampler, err := core.NewPriorSampler(mu)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(414)
	public := rng.New(415)
	const trials = 3000
	var bits, rounds float64
	x := make([]int, k)
	for i := 0; i < trials; i++ {
		if _, err := sampler.Sample(src, x); err != nil {
			t.Fatal(err)
		}
		res, err := CompressRun(spec, mu, x, public)
		if err != nil {
			t.Fatal(err)
		}
		bits += float64(res.CompressedBits)
		rounds += float64(res.Rounds)
	}
	meanBits := bits / trials
	meanRounds := rounds / trials
	budget := exact.ExternalIC + meanRounds*8
	if meanBits > budget {
		t.Fatalf("mean compressed bits %v exceed IC+overhead budget %v (IC=%v, rounds=%v)",
			meanBits, budget, exact.ExternalIC, meanRounds)
	}
	if meanBits < exact.ExternalIC/4 {
		t.Fatalf("mean compressed bits %v suspiciously below IC %v", meanBits, exact.ExternalIC)
	}
}

func TestRunAmortizedOutputsCorrect(t *testing.T) {
	// Every copy's output must equal AND of its sampled input — verified
	// indirectly: outputs are 0 whenever any player wrote 0; μ guarantees
	// AND=0 always, so all outputs must be 0.
	const k = 4
	mu, _ := dist.NewMu(k)
	spec, _ := andk.NewSequential(k)
	r, err := newAmortizedRunner(spec, mu)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.run(20, rng.New(416))
	if err != nil {
		t.Fatal(err)
	}
	for c, out := range res.Outputs {
		if out != 0 {
			t.Fatalf("copy %d output %d, want 0 under μ", c, out)
		}
	}
	if res.PerCopyBits <= 0 {
		t.Fatal("per-copy bits not positive")
	}
	if res.Copies != 20 {
		t.Fatalf("copies = %d", res.Copies)
	}
	if _, err := r.run(0, rng.New(1)); err == nil {
		t.Fatal("zero copies succeeded")
	}
	if _, err := r.run(1, nil); err == nil {
		t.Fatal("nil source succeeded")
	}
}

func TestAmortizedPerCopyCostDecreases(t *testing.T) {
	// E11 at test scale: per-copy cost at n=64 must be well below n=1 and
	// approach the external information cost from above.
	const k = 5
	mu, _ := dist.NewMu(k)
	spec, _ := andk.NewSequential(k)
	exact, err := core.ExactCosts(spec, mu, core.TreeLimits{})
	if err != nil {
		t.Fatal(err)
	}
	curve, err := AmortizedCurve(spec, mu, []int{1, 8, 64}, 60, rng.New(417))
	if err != nil {
		t.Fatal(err)
	}
	if curve[2].PerCopyBits >= curve[0].PerCopyBits {
		t.Fatalf("per-copy cost did not decrease: %v -> %v",
			curve[0].PerCopyBits, curve[2].PerCopyBits)
	}
	// At n=64 the per-copy cost should be within a few bits of IC.
	if curve[2].PerCopyBits > exact.ExternalIC+4 {
		t.Fatalf("per-copy cost %v too far above IC %v", curve[2].PerCopyBits, exact.ExternalIC)
	}
	if _, err := AmortizedCurve(spec, mu, []int{1}, 0, rng.New(1)); err == nil {
		t.Fatal("zero repeats succeeded")
	}
}

func TestCompressRunOnDisjSpec(t *testing.T) {
	// Multi-coordinate protocol under μ^n: the compressed transcript must
	// match the deterministic run, and the observer's prior must dominate
	// every on-support message.
	const n, k = 3, 3
	spec, err := disj.NewSequentialSpec(n, k)
	if err != nil {
		t.Fatal(err)
	}
	mun, err := dist.NewMuN(k, n)
	if err != nil {
		t.Fatal(err)
	}
	sampler, err := core.NewPriorSampler(mun)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(418)
	public := rng.New(419)
	x := make([]int, k)
	for trial := 0; trial < 300; trial++ {
		if _, err := sampler.Sample(src, x); err != nil {
			t.Fatal(err)
		}
		res, err := CompressRun(spec, mun, x, public)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want, _, err := coretest.SampleTranscript(spec, x, rng.New(1))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Transcript) != len(want) {
			t.Fatalf("trial %d: transcript %v, want %v", trial, res.Transcript, want)
		}
		for i := range want {
			if res.Transcript[i] != want[i] {
				t.Fatalf("trial %d: transcript %v, want %v", trial, res.Transcript, want)
			}
		}
		// μ^n instances are always disjoint: output must be 1.
		if res.Output != 1 {
			t.Fatalf("trial %d: output %d, want 1 (disjoint)", trial, res.Output)
		}
	}
}

func TestRunAmortizedOnDisjSpecGroupsSpeakers(t *testing.T) {
	// The per-coordinate DISJ spec's speaker depends on transcript content,
	// so copies drift apart and rounds contain several speaker groups —
	// exercising the group-by-speaker path of the amortized runner.
	const n, k = 2, 3
	spec, err := disj.NewSequentialSpec(n, k)
	if err != nil {
		t.Fatal(err)
	}
	mun, err := dist.NewMuN(k, n)
	if err != nil {
		t.Fatal(err)
	}
	r, err := newAmortizedRunner(spec, mun)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.run(24, rng.New(420))
	if err != nil {
		t.Fatal(err)
	}
	for c, out := range res.Outputs {
		if out != 1 {
			t.Fatalf("copy %d output %d, want 1 under μ^n", c, out)
		}
	}
	if res.Transmissions <= res.Rounds {
		t.Fatalf("expected multiple speaker groups per round: %d transmissions over %d rounds",
			res.Transmissions, res.Rounds)
	}
}
