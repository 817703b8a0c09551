package core

// ParallelSpec and ProductOfPriors are the n-fold task of Theorem 4: the
// direct-sum tests check ExactCosts and both estimator engines against
// n times the single-copy cost on them.

import (
	"fmt"
	"strconv"

	"broadcastic/internal/ir"
	"broadcastic/internal/prob"
)

// ParallelSpec runs n independent copies of a base protocol back to back
// (copy 0's full execution, then copy 1's, ...). Player inputs are tuples,
// encoded base-|base input|: copy c of player i's input sits in digit c of
// x_i. Combined with ProductOfPriors this is the task T(f^n, ε) of
// Section 6: Theorem 4's proof core is that for product priors the
// information cost of the n-fold task is exactly n times the single-copy
// cost, which ExactCosts verifies numerically on this spec.
//
// (Sequential rather than round-interleaved execution changes neither the
// information cost nor the communication of the *uncompressed* protocol —
// the copies are independent — it only matters for the round count that
// compression overhead scales with, which internal/compress handles
// separately.)
type ParallelSpec struct {
	base   Spec
	copies int
}

// NewParallelSpec wraps a base spec into its n-fold parallel version. The
// tuple input space is baseInputSize^copies, so keep both small for exact
// analysis.
func NewParallelSpec(base Spec, copies int) (*ParallelSpec, error) {
	if base == nil {
		return nil, fmt.Errorf("core: nil base spec")
	}
	if copies < 1 {
		return nil, fmt.Errorf("core: copies %d < 1", copies)
	}
	size := 1
	for c := 0; c < copies; c++ {
		if size > 1<<20/base.InputSize() {
			return nil, fmt.Errorf("core: tuple input space %d^%d too large", base.InputSize(), copies)
		}
		size *= base.InputSize()
	}
	return &ParallelSpec{base: base, copies: copies}, nil
}

// NumPlayers implements Spec.
func (p *ParallelSpec) NumPlayers() int { return p.base.NumPlayers() }

// InputSize implements Spec.
func (p *ParallelSpec) InputSize() int {
	size := 1
	for c := 0; c < p.copies; c++ {
		size *= p.base.InputSize()
	}
	return size
}

// split replays the combined transcript, returning the index of the copy
// currently executing and that copy's own transcript so far. done reports
// that every copy has finished.
func (p *ParallelSpec) split(t Transcript) (copyIdx int, sub Transcript, done bool, err error) {
	c, start, pos := 0, 0, 0
	for c < p.copies {
		for {
			_, finished, err := p.base.NextSpeaker(t[start:pos])
			if err != nil {
				return 0, nil, false, err
			}
			if finished {
				break
			}
			if pos == len(t) {
				return c, t[start:pos], false, nil
			}
			pos++
		}
		c++
		start = pos
	}
	if pos != len(t) {
		return 0, nil, false, fmt.Errorf("core: parallel transcript continues past final copy")
	}
	return p.copies, nil, true, nil
}

// digit extracts copy c's input from a tuple value.
func (p *ParallelSpec) digit(input, c int) int {
	base := p.base.InputSize()
	for i := 0; i < c; i++ {
		input /= base
	}
	return input % base
}

// NextSpeaker implements Spec.
func (p *ParallelSpec) NextSpeaker(t Transcript) (int, bool, error) {
	_, sub, done, err := p.split(t)
	if err != nil {
		return 0, false, err
	}
	if done {
		return 0, true, nil
	}
	return p.base.NextSpeaker(sub)
}

// MessageAlphabet implements Spec.
func (p *ParallelSpec) MessageAlphabet(t Transcript) (int, error) {
	_, sub, done, err := p.split(t)
	if err != nil {
		return 0, err
	}
	if done {
		return 0, fmt.Errorf("core: alphabet after halt")
	}
	return p.base.MessageAlphabet(sub)
}

// MessageDist implements Spec.
func (p *ParallelSpec) MessageDist(t Transcript, player, input int) (prob.Dist, error) {
	c, sub, done, err := p.split(t)
	if err != nil {
		return prob.Dist{}, err
	}
	if done {
		return prob.Dist{}, fmt.Errorf("core: message after halt")
	}
	return p.base.MessageDist(sub, player, p.digit(input, c))
}

// MessageBits implements Spec.
func (p *ParallelSpec) MessageBits(t Transcript, symbol int) (int, error) {
	_, sub, done, err := p.split(t)
	if err != nil {
		return 0, err
	}
	if done {
		return 0, fmt.Errorf("core: bits after halt")
	}
	return p.base.MessageBits(sub, symbol)
}

// Output implements Spec: the outputs of the copies packed base-2 (copy c
// in bit c); callers needing richer outputs can re-split the transcript.
func (p *ParallelSpec) Output(t Transcript) (int, error) {
	pos := 0
	out := 0
	for c := 0; c < p.copies; c++ {
		var local Transcript
		for {
			_, finished, err := p.base.NextSpeaker(local)
			if err != nil {
				return 0, err
			}
			if finished {
				break
			}
			if pos == len(t) {
				return 0, fmt.Errorf("core: output of incomplete parallel transcript")
			}
			local = append(local, t[pos])
			pos++
		}
		v, err := p.base.Output(local)
		if err != nil {
			return 0, err
		}
		if v != 0 {
			out |= 1 << uint(c)
		}
	}
	return out, nil
}

// IRKey composes the base spec's compiled-IR identity with the copy
// count. An unkeyed base (no IRKey, or an empty one) makes the wrapper
// unkeyed too — "" by convention — since the wrapper's behavior cannot be
// named without naming the base's.
func (p *ParallelSpec) IRKey() string {
	bk, ok := p.base.(ir.Keyer)
	if !ok {
		return ""
	}
	base := bk.IRKey()
	if base == "" {
		return ""
	}
	return "core.par/" + strconv.Itoa(p.copies) + "(" + base + ")"
}

var _ Spec = (*ParallelSpec)(nil)

// ProductOfPriors is the n-fold product of a base prior: inputs are tuples
// (digit c drawn from an independent instance of the base prior), and the
// auxiliary variable is the tuple of per-copy auxiliaries (digit c in
// base-auxSize position c).
type ProductOfPriors struct {
	base   Prior
	copies int
}

// NewProductOfPriors wraps a base prior into its n-fold product.
func NewProductOfPriors(base Prior, copies int) (*ProductOfPriors, error) {
	if base == nil {
		return nil, fmt.Errorf("core: nil base prior")
	}
	if copies < 1 {
		return nil, fmt.Errorf("core: copies %d < 1", copies)
	}
	auxSize, inputSize := 1, 1
	for c := 0; c < copies; c++ {
		if auxSize > 1<<20/base.AuxSize() || inputSize > 1<<20/base.InputSize() {
			return nil, fmt.Errorf("core: product prior too large at %d copies", copies)
		}
		auxSize *= base.AuxSize()
		inputSize *= base.InputSize()
	}
	return &ProductOfPriors{base: base, copies: copies}, nil
}

// NumPlayers implements Prior.
func (p *ProductOfPriors) NumPlayers() int { return p.base.NumPlayers() }

// InputSize implements Prior.
func (p *ProductOfPriors) InputSize() int {
	size := 1
	for c := 0; c < p.copies; c++ {
		size *= p.base.InputSize()
	}
	return size
}

// AuxSize implements Prior.
func (p *ProductOfPriors) AuxSize() int {
	size := 1
	for c := 0; c < p.copies; c++ {
		size *= p.base.AuxSize()
	}
	return size
}

// AuxProb implements Prior.
func (p *ProductOfPriors) AuxProb(z int) float64 {
	if z < 0 || z >= p.AuxSize() {
		return 0
	}
	pr := 1.0
	for c := 0; c < p.copies; c++ {
		pr *= p.base.AuxProb(z % p.base.AuxSize())
		z /= p.base.AuxSize()
	}
	return pr
}

// PlayerDist implements Prior: the product of the per-copy conditionals.
func (p *ProductOfPriors) PlayerDist(z, player int) (prob.Dist, error) {
	dists := make([]prob.Dist, p.copies)
	for c := 0; c < p.copies; c++ {
		d, err := p.base.PlayerDist(z%p.base.AuxSize(), player)
		if err != nil {
			return prob.Dist{}, err
		}
		dists[c] = d
		z /= p.base.AuxSize()
	}
	// Tuple value encoding: digit c has stride base.InputSize()^c.
	size := p.InputSize()
	w := make([]float64, size)
	baseSize := p.base.InputSize()
	for v := 0; v < size; v++ {
		pr := 1.0
		vv := v
		for c := 0; c < p.copies; c++ {
			pr *= dists[c].P(vv % baseSize)
			vv /= baseSize
		}
		w[v] = pr
	}
	return prob.NewDist(w)
}

// IRKey composes the base prior's compiled-IR identity with the copy
// count, mirroring ParallelSpec.IRKey.
func (p *ProductOfPriors) IRKey() string {
	bk, ok := p.base.(ir.Keyer)
	if !ok {
		return ""
	}
	base := bk.IRKey()
	if base == "" {
		return ""
	}
	return "core.prodprior/" + strconv.Itoa(p.copies) + "(" + base + ")"
}

var _ Prior = (*ProductOfPriors)(nil)
