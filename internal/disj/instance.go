// Package disj implements k-party set disjointness DISJ_{n,k} in the
// broadcast model: each player i holds X_i ⊆ [n] and the players decide
// whether ∩_i X_i = ∅ (output 1 ⇔ disjoint, matching the paper's
// DISJ = ¬ ∨_j ∧_i X_i^j convention).
//
// Two protocols are provided:
//
//   - Naive (introduction): one pass, each player writes the raw indices of
//     its zero coordinates not yet on the board — Θ(n log n + k) bits.
//   - Optimal (Section 5): cycles with batched subset encoding —
//     Θ(n log k + k) bits, matching the paper's lower bound.
//
// Both run on the internal/blackboard runtime with bit-exact accounting.
package disj

import (
	"fmt"

	"broadcastic/internal/bitvec"
	"broadcastic/internal/rng"
)

// Instance is a DISJ_{n,k} input: one membership vector per player.
// Sets[i].Get(j) reports whether j ∈ X_i.
type Instance struct {
	N    int
	K    int
	Sets []*bitvec.Vector
}

// NewInstance validates and wraps per-player sets.
func NewInstance(n int, sets []*bitvec.Vector) (*Instance, error) {
	if n < 1 {
		return nil, fmt.Errorf("disj: universe size %d < 1", n)
	}
	if len(sets) < 1 {
		return nil, fmt.Errorf("disj: no players")
	}
	for i, s := range sets {
		if s == nil {
			return nil, fmt.Errorf("disj: nil set for player %d", i)
		}
		if s.Len() != n {
			return nil, fmt.Errorf("disj: player %d has universe %d, want %d", i, s.Len(), n)
		}
	}
	return &Instance{N: n, K: len(sets), Sets: sets}, nil
}

// Disjoint reports the ground truth by direct intersection.
func (inst *Instance) Disjoint() (bool, error) {
	_, nonEmpty, err := bitvec.IntersectsAll(inst.Sets)
	if err != nil {
		return false, err
	}
	return !nonEmpty, nil
}

// GenerateDisjoint samples an instance guaranteed to be disjoint: each
// element joins each set independently with probability density, and then
// one uniformly random player is removed from each element's membership
// (mirroring the hard distribution's "special player" device at scale).
func GenerateDisjoint(src *rng.Source, n, k int, density float64) (*Instance, error) {
	if err := checkGenArgs(src, n, k, density); err != nil {
		return nil, err
	}
	sets := make([]*bitvec.Vector, k)
	for i := range sets {
		v, err := bitvec.New(n)
		if err != nil {
			return nil, err
		}
		sets[i] = v
	}
	for j := 0; j < n; j++ {
		for i := 0; i < k; i++ {
			if src.Bernoulli(density) {
				if err := sets[i].Set(j); err != nil {
					return nil, err
				}
			}
		}
		if err := sets[src.Intn(k)].Clear(j); err != nil {
			return nil, err
		}
	}
	return NewInstance(n, sets)
}

// GenerateIntersecting samples a random instance and plants `common`
// elements present in every set, guaranteeing a non-empty intersection.
func GenerateIntersecting(src *rng.Source, n, k, common int, density float64) (*Instance, error) {
	if err := checkGenArgs(src, n, k, density); err != nil {
		return nil, err
	}
	if common < 1 || common > n {
		return nil, fmt.Errorf("disj: common element count %d outside [1,%d]", common, n)
	}
	inst, err := GenerateDisjoint(src, n, k, density)
	if err != nil {
		return nil, err
	}
	for _, j := range src.SampleWithoutReplacement(n, common) {
		for i := 0; i < k; i++ {
			if err := inst.Sets[i].Set(j); err != nil {
				return nil, err
			}
		}
	}
	return inst, nil
}

// GenerateFromMuN samples an instance from the paper's hard distribution
// μ^n: coordinate j has a special player Z_j forced out of X_{Z_j}, and
// every other player misses j independently with probability 1/k. Note the
// sampled instance may or may not be disjoint (a coordinate survives in the
// intersection when no non-special player drew a zero there... it cannot:
// the special player always misses it). μ^n instances are always disjoint;
// they are the information-theoretically hard disjoint inputs.
func GenerateFromMuN(src *rng.Source, n, k int) (*Instance, error) {
	return GenerateFromMuNInto(nil, src, n, k)
}

// GenerateFromMuNInto is GenerateFromMuN with instance reuse: when dst has
// the requested shape its bit vectors are cleared and refilled in place, so
// per-trial sampling loops allocate nothing. Pass the previous trial's
// instance (or nil for the first). The randomness draws are identical to
// GenerateFromMuN's, draw for draw, whether or not dst is reused.
func GenerateFromMuNInto(dst *Instance, src *rng.Source, n, k int) (*Instance, error) {
	if src == nil {
		return nil, fmt.Errorf("disj: nil randomness source")
	}
	if n < 1 || k < 2 {
		return nil, fmt.Errorf("disj: need n >= 1 and k >= 2, got n=%d k=%d", n, k)
	}
	inst := dst
	if inst == nil || inst.N != n || inst.K != k || len(inst.Sets) != k {
		sets := make([]*bitvec.Vector, k)
		for i := range sets {
			v, err := bitvec.New(n)
			if err != nil {
				return nil, err
			}
			sets[i] = v
		}
		inst = &Instance{N: n, K: k, Sets: sets}
	} else {
		for i, s := range inst.Sets {
			if s == nil || s.Len() != n {
				return nil, fmt.Errorf("disj: reused instance has invalid set %d", i)
			}
			s.ClearAll()
		}
	}
	invK := 1 / float64(k)
	for j := 0; j < n; j++ {
		z := src.Intn(k)
		for i := 0; i < k; i++ {
			if i == z {
				continue // forced zero: element absent
			}
			if !src.Bernoulli(invK) {
				if err := inst.Sets[i].Set(j); err != nil {
					return nil, err
				}
			}
		}
	}
	return inst, nil
}

func checkGenArgs(src *rng.Source, n, k int, density float64) error {
	if src == nil {
		return fmt.Errorf("disj: nil randomness source")
	}
	if n < 1 {
		return fmt.Errorf("disj: universe size %d < 1", n)
	}
	if k < 1 {
		return fmt.Errorf("disj: player count %d < 1", k)
	}
	if density < 0 || density > 1 {
		return fmt.Errorf("disj: density %v outside [0,1]", density)
	}
	return nil
}

// Outcome reports a protocol run on an instance.
type Outcome struct {
	// Disjoint is the protocol's answer (true ⇔ empty intersection).
	Disjoint bool
	// Bits is the exact number of bits written on the blackboard.
	Bits int
	// Messages is the number of blackboard writes.
	Messages int
}
