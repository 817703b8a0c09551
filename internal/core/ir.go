package core

import (
	"broadcastic/internal/ir"
	"broadcastic/internal/prob"
	"broadcastic/internal/rng"
	"broadcastic/internal/telemetry"
	"broadcastic/internal/telemetry/causal"
)

// Compiled-IR hook: keyed (spec, prior) pairs compile once into a flat
// ir.Program (cached process-wide by identity key) and every backend —
// the estimator shard loop, single-transcript sampling, the blackboard
// bridge — executes the tables instead of re-interpreting the Spec
// interface. All fast paths are pinned bit-identical to the dynamic
// engines (see internal/ir and the ir_equiv tests); anything unkeyed or
// outside the compiler's eligibility gates keeps the dynamic path.

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

// irSpecProgram returns the cached control-surface program for spec, or
// nil when spec is unkeyed (no IRKey, or an IRKey of "" — the convention
// for wrappers whose base is unkeyed) or ineligible to compile.
func irSpecProgram(spec Spec, rec telemetry.Recorder) *ir.Program {
	sk, ok := spec.(ir.Keyer)
	if !ok {
		return nil
	}
	key := sk.IRKey()
	if key == "" {
		return nil
	}
	return ir.SpecProgram(irSpec{spec}, key, rec)
}

// irMergeSpec is irSpec for a spec that also names its sufficient state,
// so the estimator compile can merge equivalent prefixes (ir.StateKeyer).
type irMergeSpec struct {
	irSpec
	ir.StateKeyer
}

// irKeys returns the IRKeys of spec and prior, or ok = false when either
// side is unkeyed (no IRKey, or an IRKey of "").
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
func irEstimatorProgram(spec Spec, prior Prior, rec telemetry.Recorder, cause causal.Context) *ir.Program {
	skey, pkey, ok := irKeys(spec, prior)
	if !ok {
		return nil
	}
	var is ir.Spec = irSpec{spec}
	if sk, ok := spec.(ir.StateKeyer); ok {
		is = irMergeSpec{irSpec{spec}, sk}
	}
	p := ir.EstimatorProgram(is, prior, skey, pkey, rec, cause)
	if p == nil || !p.Estimator() {
		return nil
	}
	return p
}

// irBoardExec returns a table-driven blackboard execution for spec on x,
// or nil when the dynamic SpecProtocol must run instead: unkeyed or
// ineligible spec, input outside the compiled domain, a non-fixed-width
// program, or a randomized program without private randomness. The gates
// are exactly the conditions under which the dynamic bridge completes
// without error, so falling back preserves every error surface.
func irBoardExec(spec Spec, x []int, private *rng.Source) *ir.BoardExec {
	prog := irSpecProgram(spec, nil)
	if prog == nil || len(x) != prog.NumPlayers() || !prog.FixedWidth() {
		return nil
	}
	if private == nil && !prog.Deterministic() {
		return nil
	}
	for _, v := range x {
		if v < 0 || v >= prog.InputSize() {
			return nil
		}
	}
	e, err := ir.NewBoardExec(prog, x, private)
	if err != nil {
		return nil
	}
	return e
}
