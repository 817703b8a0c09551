// Package andktest holds the m-speaker truncated AND_k protocol and its
// closed-form cost, which the Lemma 6 tests and the estimator and
// closed-form cross-checks of several packages use. Only _test files
// import it, so it never ships in a binary.
package andktest

import (
	"fmt"
	"math"
	"strconv"

	"broadcastic/internal/core"
	"broadcastic/internal/prob"
)

// Truncated is the deterministic protocol in which only players 0..m-1
// speak (in order, with early stop on 0) and the output is the AND of the
// observed bits. For m < k it is incorrect, in exactly the way the Lemma 6
// adversary exploits.
type Truncated struct {
	k, m int
}

// NewTruncated returns the truncated protocol; 1 <= m <= k.
func NewTruncated(k, m int) (*Truncated, error) {
	if k < 1 || m < 1 || m > k {
		return nil, fmt.Errorf("andk: invalid truncation m=%d for k=%d", m, k)
	}
	return &Truncated{k: k, m: m}, nil
}

// NumPlayers implements core.Spec.
func (tr *Truncated) NumPlayers() int { return tr.k }

// InputSize implements core.Spec.
func (tr *Truncated) InputSize() int { return 2 }

// NextSpeaker implements core.Spec.
func (tr *Truncated) NextSpeaker(t core.Transcript) (int, bool, error) {
	if len(t) > 0 && t[len(t)-1] == 0 {
		return 0, true, nil
	}
	if len(t) >= tr.m {
		return 0, true, nil
	}
	return len(t), false, nil
}

// MessageAlphabet implements core.Spec.
func (tr *Truncated) MessageAlphabet(t core.Transcript) (int, error) { return 2, nil }

// MessageDist implements core.Spec.
func (tr *Truncated) MessageDist(t core.Transcript, player, input int) (prob.Dist, error) {
	return bitDist(input)
}

// MessageBits implements core.Spec.
func (tr *Truncated) MessageBits(t core.Transcript, symbol int) (int, error) { return 1, nil }

// Output implements core.Spec.
func (tr *Truncated) Output(t core.Transcript) (int, error) {
	if len(t) == 0 {
		return 0, fmt.Errorf("andk: output of empty transcript")
	}
	if t[len(t)-1] == 0 {
		return 0, nil
	}
	return 1, nil
}

// IRKey names the protocol for the compiled-IR program cache.
func (tr *Truncated) IRKey() string {
	return "andk.trunc/" + strconv.Itoa(tr.k) + "," + strconv.Itoa(tr.m)
}

// StateKey implements ir.StateKeyer, as for andk.Sequential.
func (tr *Truncated) StateKey(t []int) uint64 { return zeroWritten(t) }

var _ core.Spec = (*Truncated)(nil)

// TruncatedCICExact returns the exact conditional information cost of the
// m-speaker truncated AND_k protocol under μ, in bits. As for Sequential,
// given Z = z the cost is (1 − ρ^{min(m,z)})·[(k−1)·log₂(k/(k−1)) + log₂ k]:
// only the first min(m, z) players can reveal a 1 or a non-special 0.
// Averaging over uniform z gives the stated form; m = k recovers
// andk.SequentialCICExact.
func TruncatedCICExact(k, m int) (float64, error) {
	if k < 2 {
		return 0, fmt.Errorf("andk: closed form requires k >= 2, got %d", k)
	}
	if m < 1 || m > k {
		return 0, fmt.Errorf("andk: truncation m=%d outside [1,%d]", m, k)
	}
	fk := float64(k)
	rho := 1 - 1/fk
	silent := 0.0 // Σ_{z<k} ρ^{min(m,z)}
	for z := 0; z < k; z++ {
		silent += math.Pow(rho, float64(min(m, z)))
	}
	return ((fk-1)*math.Log2(fk/(fk-1)) + math.Log2(fk)) * (1 - silent/fk), nil
}

// bitDist returns the deterministic one-bit announcement distribution.
func bitDist(input int) (prob.Dist, error) {
	if input != 0 && input != 1 {
		return prob.Dist{}, fmt.Errorf("andk: non-binary input %d", input)
	}
	return prob.Point(2, input)
}

// zeroWritten is the sufficient state of the AND_k chains: 1 once some
// player has written a 0, else 0.
func zeroWritten(t []int) uint64 {
	for _, bit := range t {
		if bit == 0 {
			return 1
		}
	}
	return 0
}
