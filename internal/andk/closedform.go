package andk

import (
	"fmt"
	"math"
)

// Closed forms for the AND_k protocols under the Section 4.1 hard
// distribution μ. These extend the information-cost experiments to player
// counts far beyond enumeration or sampling, and are cross-checked against
// both in the tests — ground truth the estimator engines do not share.
//
// Derivation sketch. Condition on the special player Z = z and let
// ρ = 1 − 1/k. The transcript is determined by the first-zero position T:
// players i < T revealed a 1, player T revealed a 0, later players
// revealed nothing. By the product-posterior identity,
//
//	I(Π; X | Z) = E[ T·D(δ₁‖Bern₁(ρ)) + 1{T<z}·D(δ₀‖Bern₀(1/k)) ]
//	            = E[ T·log₂(k/(k−1)) + 1{T<z}·log₂ k ].
//
// Given z: P(T ≥ t) = ρ^t for t ≤ z, so E[T | z] = (k−1)(1−ρ^z) and
// P(T < z) = 1 − ρ^z. Averaging 1 − ρ^z over uniform z ∈ {0..k−1} gives
// exactly ρ^k, hence
//
//	CIC(k) = ρ^k · [ (k−1)·log₂(k/(k−1)) + log₂ k ]  ──k→∞──▶  (log₂ e + log₂ k)/e.
//
// For the external cost: the protocol is deterministic, so
// I(Π; X) = H(Π) − H(Π|X) = H(T), the entropy of the first-zero position
// under the marginal of μ, where P(T ≥ t) = ((k−t)/k)·ρ^t.

// SequentialCICExact returns the exact conditional information cost
// I(Π; X | Z) of the sequential AND_k protocol under μ, in bits.
func SequentialCICExact(k int) (float64, error) {
	if k < 2 {
		return 0, fmt.Errorf("andk: closed form requires k >= 2, got %d", k)
	}
	fk := float64(k)
	rho := 1 - 1/fk
	rhoK := math.Pow(rho, fk)
	return rhoK * ((fk-1)*math.Log2(fk/(fk-1)) + math.Log2(fk)), nil
}

// SequentialICExact returns the exact external information cost
// I(Π; X) = H(Π) of the sequential AND_k protocol under μ, in bits.
func SequentialICExact(k int) (float64, error) {
	if k < 2 {
		return 0, fmt.Errorf("andk: closed form requires k >= 2, got %d", k)
	}
	fk := float64(k)
	rho := 1 - 1/fk
	// P(T >= t) = ((k-t)/k) · ρ^t for t = 0..k; the all-ones transcript
	// (T = k) has probability 0 under μ.
	h := 0.0
	tailPrev := 1.0 // P(T >= 0)
	for t := 0; t < k; t++ {
		tailNext := (fk - float64(t+1)) / fk * math.Pow(rho, float64(t+1))
		p := tailPrev - tailNext
		if p > 0 {
			h -= p * math.Log2(p)
		}
		tailPrev = tailNext
	}
	return h, nil
}
