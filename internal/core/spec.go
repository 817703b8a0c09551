// Package core makes the paper's information-complexity machinery
// executable. It defines a declarative protocol representation (Spec) whose
// per-player message distributions can be queried counterfactually, and on
// top of it implements:
//
//   - exact transcript-tree enumeration with the Lemma 3 product
//     decomposition Pr[Π=ℓ | X=x] = Π_i q_{i,x_i}^ℓ maintained at every leaf;
//   - exact external and conditional information cost (Definitions 5–6),
//     both through the factored posterior formula and through brute-force
//     joint tables (used to cross-check the factored computation);
//   - an unbiased Monte-Carlo estimator of conditional information cost for
//     protocols too large to enumerate;
//   - the posterior-pointing analysis of Section 4.1: α_i^ℓ coefficients
//     (Lemma 4), the transcript sets L, B_0, B_1, L' and their π_2 masses
//     (Lemma 5).
//
// The product decomposition is exact for any protocol in the model: at each
// step the speaker's message depends only on its own input, its private
// randomness and the public board, so the transcript likelihood factorizes
// across players (Lemma 3). Because the priors we use are products
// conditioned on the auxiliary variable, posteriors stay products, giving
//
//	I(Π; X | Z) = E_{z,ℓ} Σ_i D( μ(X_i | Π=ℓ, Z=z) ‖ μ(X_i | Z=z) ),
//
// the equality case of the paper's Lemma 2.
package core

import (
	"fmt"

	"broadcastic/internal/prob"
	"broadcastic/internal/rng"
)

// Transcript is a sequence of message symbols. Symbol alphabets may vary by
// position; Spec.MessageAlphabet defines the alphabet at each point.
type Transcript []int

// String renders the transcript compactly, e.g. "1.1.0".
func (t Transcript) String() string {
	if len(t) == 0 {
		return "ε"
	}
	var b []byte
	for i, v := range t {
		if i > 0 {
			b = append(b, '.')
		}
		b = appendInt(b, v)
	}
	return string(b)
}

func appendInt(b []byte, v int) []byte {
	if v < 0 {
		b = append(b, '-')
		v = -v
	}
	if v >= 10 {
		b = appendInt(b, v/10)
	}
	return append(b, byte('0'+v%10))
}

// Spec is a protocol in the broadcast model, in the declarative form used
// for information-cost analysis. All methods must be pure functions of
// their arguments: the engine calls MessageDist counterfactually with input
// values the "real" player does not hold.
type Spec interface {
	// NumPlayers returns k.
	NumPlayers() int

	// InputSize returns the per-player input domain size; player inputs
	// are integers in [0, InputSize()).
	InputSize() int

	// NextSpeaker returns who speaks next given the transcript so far, or
	// done=true when the protocol has halted.
	NextSpeaker(t Transcript) (player int, done bool, err error)

	// MessageAlphabet returns the alphabet size of the next message given
	// the transcript (the speaker is NextSpeaker(t)).
	MessageAlphabet(t Transcript) (int, error)

	// MessageDist returns the speaker's distribution over the next message
	// symbol when holding the given input value, after transcript t. The
	// distribution's support size must equal MessageAlphabet(t).
	MessageDist(t Transcript, player, input int) (prob.Dist, error)

	// MessageBits returns the number of bits charged on the blackboard for
	// emitting the given symbol after transcript t.
	MessageBits(t Transcript, symbol int) (int, error)

	// Output returns the protocol's output for a finished transcript.
	Output(t Transcript) (int, error)
}

// Prior is an input distribution with an auxiliary variable D such that the
// players' inputs are independent conditioned on D (the structure required
// by Lemma 1 and Definition 6). dist.Mu, dist.MuN and dist.ProductPrior
// satisfy it structurally.
type Prior interface {
	NumPlayers() int
	InputSize() int
	AuxSize() int
	AuxProb(z int) float64
	PlayerDist(z, player int) (prob.Dist, error)
}

// validateShapes returns an error unless spec and prior agree on player
// count and input domain.
func validateShapes(spec Spec, prior Prior) error {
	if spec.NumPlayers() != prior.NumPlayers() {
		return fmt.Errorf("core: spec has %d players, prior has %d", spec.NumPlayers(), prior.NumPlayers())
	}
	if spec.InputSize() != prior.InputSize() {
		return fmt.Errorf("core: spec input size %d, prior input size %d", spec.InputSize(), prior.InputSize())
	}
	if spec.NumPlayers() < 1 {
		return fmt.Errorf("core: non-positive player count %d", spec.NumPlayers())
	}
	if spec.InputSize() < 1 {
		return fmt.Errorf("core: non-positive input size %d", spec.InputSize())
	}
	return nil
}

// auxDist materializes the auxiliary variable's distribution.
func auxDist(prior Prior) (prob.Dist, error) {
	w := make([]float64, prior.AuxSize())
	for z := range w {
		w[z] = prior.AuxProb(z)
	}
	return prob.Normalize(w)
}

// PriorSampler draws (z, x) pairs from a Prior. It materializes the
// auxiliary distribution once at construction, so repeated sampling (the
// amortized-compression and external-IC loops) performs no per-call setup;
// with a caller-owned x buffer each draw is allocation-free.
type PriorSampler struct {
	prior Prior
	zd    prob.Dist
}

// NewPriorSampler validates prior and prepares a sampler for it.
func NewPriorSampler(prior Prior) (*PriorSampler, error) {
	zd, err := auxDist(prior)
	if err != nil {
		return nil, err
	}
	return &PriorSampler{prior: prior, zd: zd}, nil
}

// Sample draws the auxiliary value, which it returns, and then one input
// per player, in player order, into x, which must have length NumPlayers.
func (ps *PriorSampler) Sample(src *rng.Source, x []int) (int, error) {
	if src == nil {
		return 0, fmt.Errorf("core: nil randomness source")
	}
	if len(x) != ps.prior.NumPlayers() {
		return 0, fmt.Errorf("core: input buffer has %d entries, want %d", len(x), ps.prior.NumPlayers())
	}
	z := ps.zd.Sample(src)
	for i := range x {
		d, err := ps.prior.PlayerDist(z, i)
		if err != nil {
			return 0, err
		}
		x[i] = d.Sample(src)
	}
	return z, nil
}
