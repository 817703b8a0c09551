package core

import (
	"fmt"
	"math"

	"broadcastic/internal/info"
)

// Brute-force cross-checks of ExactCosts: the same quantities computed the
// slow way, over explicit joint tables and per-input leaf sums.

// ExactCICJoint computes I(Π; X | D) by brute-force joint tables over
// (input tuple, leaf) per auxiliary value. It is exponentially slower than
// the factored path in ExactCosts and exists to cross-check it.
func ExactCICJoint(spec Spec, prior Prior, lim TreeLimits) (float64, error) {
	if err := validateShapes(spec, prior); err != nil {
		return 0, err
	}
	leaves, err := EnumerateTranscripts(spec, lim)
	if err != nil {
		return 0, err
	}
	k := prior.NumPlayers()
	inputSize := prior.InputSize()
	tuples := 1
	for i := 0; i < k; i++ {
		if tuples > 1<<20/inputSize {
			return 0, fmt.Errorf("core: joint cross-check infeasible at %d^%d tuples", inputSize, k)
		}
		tuples *= inputSize
	}
	zDist, err := auxDist(prior)
	if err != nil {
		return 0, err
	}
	total := 0.0
	x := make([]int, k)
	for z := 0; z < prior.AuxSize(); z++ {
		pz := zDist.P(z)
		if pz == 0 {
			continue
		}
		playerDists := make([][]float64, k)
		for i := 0; i < k; i++ {
			d, err := prior.PlayerDist(z, i)
			if err != nil {
				return 0, err
			}
			playerDists[i] = d.Probs()
		}
		joint, err := info.EmptyJoint(tuples, len(leaves))
		if err != nil {
			return 0, err
		}
		mass := false
		for tIdx := 0; tIdx < tuples; tIdx++ {
			decodeTuple(tIdx, inputSize, x)
			px := 1.0
			for i, v := range x {
				px *= playerDists[i][v]
			}
			if px == 0 {
				continue
			}
			for li, leaf := range leaves {
				pl, err := leaf.ProbGivenInput(x)
				if err != nil {
					return 0, err
				}
				if pl == 0 {
					continue
				}
				if err := joint.Add(tIdx, li, px*pl); err != nil {
					return 0, err
				}
				mass = true
			}
		}
		if !mass {
			return 0, fmt.Errorf("core: zero transcript mass at z=%d", z)
		}
		if err := joint.NormalizeInPlace(); err != nil {
			return 0, err
		}
		mi, err := joint.MutualInformation()
		if err != nil {
			return 0, err
		}
		total += pz * mi
	}
	return total, nil
}

// OutputProb returns Pr[Π(x) outputs 1] by exact enumeration.
func OutputProb(spec Spec, x []int, lim TreeLimits) (float64, error) {
	if len(x) != spec.NumPlayers() {
		return 0, fmt.Errorf("core: input has %d entries, want %d", len(x), spec.NumPlayers())
	}
	leaves, err := EnumerateTranscripts(spec, lim)
	if err != nil {
		return 0, err
	}
	p1 := 0.0
	total := 0.0
	for _, leaf := range leaves {
		pl, err := leaf.ProbGivenInput(x)
		if err != nil {
			return 0, err
		}
		total += pl
		if leaf.Output == 1 {
			p1 += pl
		}
	}
	if math.Abs(total-1) > 1e-6 {
		return 0, fmt.Errorf("core: transcript probabilities on input sum to %v", total)
	}
	return p1 / total, nil
}
