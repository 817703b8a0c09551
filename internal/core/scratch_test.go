package core

// White-box tests for the estimator's reusable execution scratch. The
// acceptance bar for the memory-reuse layer is that the per-sample inner
// loop of EstimateCICOpts performs zero heap allocations once a shard's
// scratch is warm; this is pinned with testing.AllocsPerRun against
// in-package fixtures whose MessageDist/PlayerDist lookups are themselves
// allocation-free (cached Dists), so any allocation measured belongs to
// the engine.

import (
	"testing"

	"broadcastic/internal/prob"
	"broadcastic/internal/rng"
)

// noisySpec: every player broadcasts one bit, biased by its input, so
// transcripts vary and every q-update path runs.
type noisySpec struct {
	k     int
	dists [2]prob.Dist
}

func newNoisySpec(t *testing.T, k int) *noisySpec {
	t.Helper()
	d0, err := prob.Bernoulli(0.3)
	if err != nil {
		t.Fatal(err)
	}
	d1, err := prob.Bernoulli(0.8)
	if err != nil {
		t.Fatal(err)
	}
	return &noisySpec{k: k, dists: [2]prob.Dist{d0, d1}}
}

func (s *noisySpec) NumPlayers() int { return s.k }
func (s *noisySpec) InputSize() int  { return 2 }
func (s *noisySpec) NextSpeaker(t Transcript) (int, bool, error) {
	if len(t) >= s.k {
		return 0, true, nil
	}
	return len(t), false, nil
}
func (s *noisySpec) MessageAlphabet(Transcript) (int, error) { return 2, nil }
func (s *noisySpec) MessageDist(_ Transcript, _, input int) (prob.Dist, error) {
	return s.dists[input], nil
}
func (s *noisySpec) MessageBits(Transcript, int) (int, error) { return 1, nil }
func (s *noisySpec) Output(Transcript) (int, error)           { return 0, nil }

// mixturePrior: two auxiliary values with different cached input biases, so
// the z-dependent paths of the sample loop are exercised.
type mixturePrior struct {
	k     int
	dists [2]prob.Dist
}

func newMixturePrior(t *testing.T, k int) *mixturePrior {
	t.Helper()
	d0, err := prob.Bernoulli(0.25)
	if err != nil {
		t.Fatal(err)
	}
	d1, err := prob.Bernoulli(0.75)
	if err != nil {
		t.Fatal(err)
	}
	return &mixturePrior{k: k, dists: [2]prob.Dist{d0, d1}}
}

func (p *mixturePrior) NumPlayers() int     { return p.k }
func (p *mixturePrior) InputSize() int      { return 2 }
func (p *mixturePrior) AuxSize() int        { return 2 }
func (p *mixturePrior) AuxProb(int) float64 { return 0.5 }
func (p *mixturePrior) PlayerDist(z, _ int) (prob.Dist, error) {
	return p.dists[z], nil
}

func TestCICSampleLoopZeroAllocs(t *testing.T) {
	const k = 16
	spec := newNoisySpec(t, k)
	prior := newMixturePrior(t, k)
	zd, err := auxDist(prior)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(3)
	sc := newExecScratch(k, spec.InputSize())
	// Warm up: first samples may grow the transcript path and prior rows.
	for i := 0; i < 8; i++ {
		if _, _, err := sc.runSample(spec, prior, zd, src); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, _, err := sc.runSample(spec, prior, zd, src); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state sample loop allocates %.1f objects/sample; want 0", allocs)
	}
}

// TestScratchPoolReusesShape pins the shard-level lifecycle: a released
// scratch with the right shape is handed back, a mismatched one is not.
func TestScratchPoolReusesShape(t *testing.T) {
	sc := newExecScratch(4, 2)
	putExecScratch(sc)
	got := getExecScratch(4, 2)
	if got != sc {
		// The pool may have been drained by a concurrent GC; accept a
		// fresh scratch but verify its shape.
		if got.k != 4 || got.inputSize != 2 {
			t.Fatalf("scratch shape %dx%d, want 4x2", got.k, got.inputSize)
		}
	}
	putExecScratch(got)
	other := getExecScratch(6, 3)
	if other.k != 6 || other.inputSize != 3 {
		t.Fatalf("mismatched scratch reused: shape %dx%d", other.k, other.inputSize)
	}
}

// TestScratchSamplesMatchLegacyPath pins that the scratch-based shard
// produces the exact values the pre-scratch per-sample allocation path
// produced: identical RNG consumption, identical q-factors, identical
// divergences. The legacy path is reconstructed inline.
func TestScratchSamplesMatchLegacyPath(t *testing.T) {
	const k, samples = 5, 300
	spec := newNoisySpec(t, k)
	prior := newMixturePrior(t, k)
	zd, err := auxDist(prior)
	if err != nil {
		t.Fatal(err)
	}

	legacy := func(src *rng.Source) (sum, bitsSum float64) {
		for s := 0; s < samples; s++ {
			z := zd.Sample(src)
			x := make([]int, k)
			priors := make([][]float64, k)
			q := make([][]float64, k)
			for i := 0; i < k; i++ {
				d, err := prior.PlayerDist(z, i)
				if err != nil {
					t.Fatal(err)
				}
				priors[i] = d.Probs()
				x[i] = d.Sample(src)
				q[i] = make([]float64, spec.InputSize())
				for v := range q[i] {
					q[i][v] = 1
				}
			}
			var tr Transcript
			bits := 0
			for {
				speaker, done, err := spec.NextSpeaker(tr)
				if err != nil {
					t.Fatal(err)
				}
				if done {
					break
				}
				d, err := spec.MessageDist(tr, speaker, x[speaker])
				if err != nil {
					t.Fatal(err)
				}
				sym := d.Sample(src)
				for v := range q[speaker] {
					dv, err := spec.MessageDist(tr, speaker, v)
					if err != nil {
						t.Fatal(err)
					}
					q[speaker][v] *= dv.P(sym)
				}
				sb, err := spec.MessageBits(tr, sym)
				if err != nil {
					t.Fatal(err)
				}
				bits += sb
				tr = append(tr, sym)
			}
			inner, err := qDivergenceSum(q, priors)
			if err != nil {
				t.Fatal(err)
			}
			sum += inner
			bitsSum += float64(bits)
		}
		return sum, bitsSum
	}

	wantSum, wantBits := legacy(rng.New(77))

	src := rng.New(77)
	sc := newExecScratch(k, spec.InputSize())
	var gotSum, gotBits float64
	for s := 0; s < samples; s++ {
		inner, bits, err := sc.runSample(spec, prior, zd, src)
		if err != nil {
			t.Fatal(err)
		}
		gotSum += inner
		gotBits += float64(bits)
	}
	if gotSum != wantSum || gotBits != wantBits {
		t.Fatalf("scratch path (sum=%v bits=%v) != legacy path (sum=%v bits=%v)",
			gotSum, gotBits, wantSum, wantBits)
	}
}
