package core

import (
	"broadcastic/internal/ir"
	"broadcastic/internal/prob"
	"broadcastic/internal/telemetry"
	"broadcastic/internal/telemetry/causal"
)

// Compiled-IR hook: keyed (spec, prior) pairs compile once into a flat
// ir.Program (cached process-wide by identity key), and the estimator's
// shards execute its tables instead of re-interpreting the Spec
// interface. The compiled shard loop is pinned bit-identical to the
// scalar engine (see internal/ir and the ir_equiv tests); anything
// unkeyed or outside the compiler's eligibility gates keeps the scalar
// path.

// irSpec adapts a Spec to ir.Spec: Transcript is a named []int, so the
// adapter is a zero-cost type conversion per method.
type irSpec struct{ s Spec }

func (a irSpec) NumPlayers() int { return a.s.NumPlayers() }
func (a irSpec) InputSize() int  { return a.s.InputSize() }
func (a irSpec) NextSpeaker(t []int) (int, bool, error) {
	return a.s.NextSpeaker(Transcript(t))
}
func (a irSpec) MessageAlphabet(t []int) (int, error) {
	return a.s.MessageAlphabet(Transcript(t))
}
func (a irSpec) MessageDist(t []int, player, input int) (prob.Dist, error) {
	return a.s.MessageDist(Transcript(t), player, input)
}
func (a irSpec) MessageBits(t []int, symbol int) (int, error) {
	return a.s.MessageBits(Transcript(t), symbol)
}
func (a irSpec) Output(t []int) (int, error) {
	return a.s.Output(Transcript(t))
}

// irMergeSpec is irSpec for a spec that also names its sufficient state,
// so the estimator compile can merge equivalent prefixes (ir.StateKeyer).
type irMergeSpec struct {
	irSpec
	ir.StateKeyer
}

// irKeys returns the IRKeys of spec and prior, or ok = false when either
// side is unkeyed (no IRKey, or an IRKey of "" — the convention for
// wrappers whose base is unkeyed).
func irKeys(spec Spec, prior Prior) (skey, pkey string, ok bool) {
	sk, ok := spec.(ir.Keyer)
	if !ok {
		return "", "", false
	}
	pk, ok := prior.(ir.Keyer)
	if !ok {
		return "", "", false
	}
	skey, pkey = sk.IRKey(), pk.IRKey()
	return skey, pkey, skey != "" && pkey != ""
}

// irEstimatorProgram returns the cached estimator program for the keyed
// (spec, prior) pair, or nil when either side is unkeyed or the pair is
// ineligible. A core.Prior satisfies ir.Prior structurally, so only the
// spec needs the adapter.
func irEstimatorProgram(spec Spec, prior Prior, rec *telemetry.Collector, cause causal.Context) *ir.Program {
	skey, pkey, ok := irKeys(spec, prior)
	if !ok {
		return nil
	}
	var is ir.Spec = irSpec{spec}
	if sk, ok := spec.(ir.StateKeyer); ok {
		is = irMergeSpec{irSpec{spec}, sk}
	}
	return ir.EstimatorProgram(is, prior, skey, pkey, rec, cause)
}
