package core

import (
	"fmt"
	"math"

	"broadcastic/internal/prob"
	"broadcastic/internal/rng"
)

// Observer is the external observer of Section 6: it watches the board,
// knows the prior, and maintains the exact Bayes posterior over the
// players' inputs via the Lemma 3 q-factors. Its message prediction ν is
// both the compression prior of Lemma 7 and the per-round reference
// distribution in the chain-rule decomposition
//
//	IC(Π) = I(Π; X) = Σ_j I(M_j; X_{i_j} | M_{<j})
//	      = Σ_j E[ D( η_j ‖ ν_j ) ],
//
// where η_j is the speaker's true message distribution and ν_j the
// observer's prediction. EstimateExternalIC samples that expectation.
type Observer struct {
	prior Prior
	q     [][]float64 // q[i][v]: likelihood of the board so far under X_i=v

	// Incremental caches keyed by auxiliary value z, so that PlayerPosterior
	// costs O(aux · inputSize) instead of O(aux · k · inputSize):
	//   s[z][i]    = S_i(z) = Σ_v prior_i(v|z) · q_i(v)
	//   weights[z] = p(z) · Π_i S_i(z)
	s       [][]float64
	weights []float64

	// post is the posterior scratch used by PredictMessageInto so that a
	// prediction costs no allocations; valid only during a single call.
	post []float64
}

// NewObserver starts an observer with an empty board.
func NewObserver(prior Prior) (*Observer, error) {
	if prior.NumPlayers() < 1 || prior.InputSize() < 1 {
		return nil, fmt.Errorf("core: invalid prior shape %dx%d", prior.NumPlayers(), prior.InputSize())
	}
	q := make([][]float64, prior.NumPlayers())
	for i := range q {
		q[i] = make([]float64, prior.InputSize())
		for v := range q[i] {
			q[i][v] = 1
		}
	}
	// With q ≡ 1 every S_i(z) is a probability sum, i.e. exactly 1.
	s := make([][]float64, prior.AuxSize())
	weights := make([]float64, prior.AuxSize())
	for z := range s {
		s[z] = make([]float64, prior.NumPlayers())
		for i := range s[z] {
			s[z][i] = 1
		}
		weights[z] = prior.AuxProb(z)
	}
	return &Observer{prior: prior, q: q, s: s, weights: weights}, nil
}

// posteriorWeightsInto accumulates the unnormalized posterior weights for
// player i into out (length InputSize), the shared kernel of
// PlayerPosterior and PredictMessageInto.
func (o *Observer) posteriorWeightsInto(i int, out []float64) error {
	k := o.prior.NumPlayers()
	if i < 0 || i >= k {
		return fmt.Errorf("core: player %d outside [0,%d)", i, k)
	}
	for v := range out {
		out[v] = 0
	}
	for z := 0; z < o.prior.AuxSize(); z++ {
		weight := o.weights[z]
		si := o.s[z][i]
		if weight == 0 || si == 0 {
			continue
		}
		d, err := o.prior.PlayerDist(z, i)
		if err != nil {
			return err
		}
		for v := range out {
			out[v] += weight * d.P(v) * o.q[i][v] / si
		}
	}
	return nil
}

// PlayerPosterior returns the observer's current posterior over player i's
// input: Pr[X_i = v | board] = Σ_z Pr[z | board]·Pr[X_i = v | z, board].
func (o *Observer) PlayerPosterior(i int) (prob.Dist, error) {
	out := make([]float64, o.prior.InputSize())
	if err := o.posteriorWeightsInto(i, out); err != nil {
		return prob.Dist{}, err
	}
	d, err := prob.Normalize(out)
	if err != nil {
		return prob.Dist{}, fmt.Errorf("core: observer posterior for player %d: %w", i, err)
	}
	return d, nil
}

// PredictMessageInto returns ν, the observer's prediction of the next
// message: it samples X_speaker from its posterior and pushes it through the
// protocol's message function (footnote 3 of the paper), i.e.
// ν(m) = Σ_v Pr[X_speaker = v | board] · Pr[m | v, board]. It accumulates
// the unnormalized weights in index order, divides by their sum, and writes
// the result into w (grown from w[:0] as needed), so the compression hot
// loop predicts every message without allocating; prob.NewDist(w) makes a
// Dist of it. The result aliases w and o's scratch lifetime: it is valid
// until the observer's next prediction.
func (o *Observer) PredictMessageInto(spec Spec, t Transcript, speaker int, w []float64) ([]float64, error) {
	if o.post == nil {
		o.post = make([]float64, o.prior.InputSize())
	}
	if err := o.posteriorWeightsInto(speaker, o.post); err != nil {
		return nil, err
	}
	sum := 0.0
	for _, v := range o.post {
		sum += v
	}
	if sum <= 0 {
		return nil, fmt.Errorf("core: observer posterior for player %d: all weights are zero", speaker)
	}
	for v := range o.post {
		o.post[v] /= sum
	}
	alphabet, err := spec.MessageAlphabet(t)
	if err != nil {
		return nil, err
	}
	w = w[:0]
	for m := 0; m < alphabet; m++ {
		w = append(w, 0)
	}
	// spec.InputSize() matches len(o.post) whenever spec and prior agree on
	// shapes; out-of-range inputs carry zero posterior mass, so they are
	// simply skipped.
	for v := 0; v < spec.InputSize() && v < len(o.post); v++ {
		pv := o.post[v]
		if pv == 0 {
			continue
		}
		d, err := spec.MessageDist(t, speaker, v)
		if err != nil {
			return nil, err
		}
		for m := 0; m < alphabet; m++ {
			w[m] += pv * d.P(m)
		}
	}
	wsum := 0.0
	for _, v := range w {
		wsum += v
	}
	if wsum <= 0 {
		return nil, fmt.Errorf("core: observer prediction for player %d: all weights are zero", speaker)
	}
	for m := range w {
		w[m] /= wsum
	}
	return w, nil
}

// Reset restores the observer to its empty-board state (q ≡ 1, every
// S_i(z) = 1, weights = the auxiliary prior), so one observer can be reused
// across independent protocol runs without reallocating its caches.
func (o *Observer) Reset() {
	for i := range o.q {
		row := o.q[i]
		for v := range row {
			row[v] = 1
		}
	}
	for z := range o.s {
		row := o.s[z]
		for i := range row {
			row[i] = 1
		}
		o.weights[z] = o.prior.AuxProb(z)
	}
}

// Update folds an observed message into the posterior and refreshes the
// per-z caches for the speaker.
func (o *Observer) Update(spec Spec, t Transcript, speaker, symbol int) error {
	for v := 0; v < o.prior.InputSize(); v++ {
		d, err := spec.MessageDist(t, speaker, v)
		if err != nil {
			return err
		}
		o.q[speaker][v] *= d.P(symbol)
	}
	for z := 0; z < o.prior.AuxSize(); z++ {
		if o.weights[z] == 0 {
			continue
		}
		d, err := o.prior.PlayerDist(z, speaker)
		if err != nil {
			return err
		}
		newS := 0.0
		for v := 0; v < o.prior.InputSize(); v++ {
			newS += d.P(v) * o.q[speaker][v]
		}
		oldS := o.s[z][speaker]
		o.s[z][speaker] = newS
		if oldS == 0 {
			o.weights[z] = 0
			continue
		}
		o.weights[z] *= newS / oldS
	}
	return nil
}

// ICEstimate is the result of a Monte-Carlo external information cost
// estimation.
type ICEstimate struct {
	Mean    float64
	StdErr  float64
	Samples int
}

// EstimateExternalIC estimates IC_μ(Π) = I(Π; X) by sampling executions
// and summing, over each run's rounds, the exact divergence
// D(η_j ‖ ν_j) between the speaker's true message distribution and the
// external observer's Bayes prediction. By the chain rule this per-run sum
// has expectation exactly I(Π; X), so the estimator is unbiased. Unlike
// EstimateCICOpts it prices the aux-marginalized posterior, so it works for
// external (unconditional) information cost at player counts far beyond
// exact enumeration — at O(k · aux · rounds) arithmetic per sample.
func EstimateExternalIC(spec Spec, prior Prior, src *rng.Source, samples int) (*ICEstimate, error) {
	if err := validateShapes(spec, prior); err != nil {
		return nil, err
	}
	if samples < 1 {
		return nil, fmt.Errorf("core: non-positive sample count %d", samples)
	}
	if src == nil {
		return nil, fmt.Errorf("core: nil randomness source")
	}
	ps, err := NewPriorSampler(prior)
	if err != nil {
		return nil, err
	}
	obs, err := NewObserver(prior)
	if err != nil {
		return nil, err
	}
	x := make([]int, prior.NumPlayers())
	var t Transcript
	var nu []float64
	var sum, sumSq float64
	for s := 0; s < samples; s++ {
		if _, err := ps.Sample(src, x); err != nil {
			return nil, err
		}
		if s > 0 {
			obs.Reset()
		}
		t = t[:0]
		runInfo := 0.0
		for step := 0; ; step++ {
			if step > defaultMaxDepth {
				return nil, fmt.Errorf("%w (%d)", ErrTreeDepth, defaultMaxDepth)
			}
			speaker, done, err := spec.NextSpeaker(t)
			if err != nil {
				return nil, err
			}
			if done {
				break
			}
			eta, err := spec.MessageDist(t, speaker, x[speaker])
			if err != nil {
				return nil, err
			}
			nu, err = obs.PredictMessageInto(spec, t, speaker, nu)
			if err != nil {
				return nil, err
			}
			d, err := klDivVec(eta, nu)
			if err != nil {
				return nil, fmt.Errorf("core: round %d: %w", step, err)
			}
			runInfo += d
			sym := eta.Sample(src)
			if err := obs.Update(spec, t, speaker, sym); err != nil {
				return nil, err
			}
			t = append(t, sym)
		}
		sum += runInfo
		sumSq += runInfo * runInfo
	}
	mean := sum / float64(samples)
	variance := sumSq/float64(samples) - mean*mean
	if variance < 0 {
		variance = 0
	}
	return &ICEstimate{
		Mean:    mean,
		StdErr:  math.Sqrt(variance / float64(samples)),
		Samples: samples,
	}, nil
}

// klDivVec is KL(post ‖ prior) in bits over equal finite supports, against
// a raw probability vector, so hot loops can price a prediction straight
// from PredictMessageInto's scratch output. Inlined here (rather than
// importing info) to keep core's dependencies minimal.
func klDivVec(post prob.Dist, prior []float64) (float64, error) {
	if post.Size() != len(prior) {
		return 0, fmt.Errorf("core: KL support mismatch %d vs %d", post.Size(), len(prior))
	}
	d := 0.0
	for v := 0; v < post.Size(); v++ {
		p := post.P(v)
		if p == 0 {
			continue
		}
		q := prior[v]
		if q == 0 {
			return 0, fmt.Errorf("core: observer prediction excludes a possible message (value %d)", v)
		}
		d += p * math.Log2(p/q)
	}
	if d < 0 && d > -1e-12 {
		d = 0
	}
	return d, nil
}
