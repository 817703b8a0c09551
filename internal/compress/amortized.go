package compress

import (
	"fmt"
	"math"

	"broadcastic/internal/core"
	"broadcastic/internal/rng"
)

// Theorem 3 machinery: run n independent copies of a protocol in parallel,
// round by round, and compress each round's combined message with one
// Lemma 7 transmission over the product universe. The combined divergence
// is the sum of the per-copy divergences (independence), while the O(log)
// overhead is paid once per round per speaker — so the per-copy cost tends
// to IC_μ(Π) as n → ∞.

// AmortizedResult reports one n-fold compressed execution.
type AmortizedResult struct {
	Copies         int
	CompressedBits int     // total bits across all rounds
	PerCopyBits    float64 // CompressedBits / Copies
	OriginalBits   int     // uncompressed total
	Rounds         int     // rounds of the combined protocol
	Transmissions  int     // Lemma 7 calls (round × distinct speakers)
	Outputs        []int   // per-copy protocol outputs
}

// copyState tracks one running copy. Its input slice, transcript backing
// and observer persist across runs of the owning amortizedRunner.
type copyState struct {
	x        []int
	t        core.Transcript
	obs      *core.Observer
	done     bool
	output   int
	origBits int
}

// amortizedRunner holds every buffer an n-fold compressed execution needs —
// the prior sampler, one observer and transcript per copy, the prediction
// vector, the per-group log-ratio and pending-symbol scratch — so repeated
// runs (E11 sweeps a copy-count grid with many repeats per point) recycle
// all of it instead of reallocating per execution.
type amortizedRunner struct {
	spec  core.Spec
	prior core.Prior
	ps    *core.PriorSampler

	states []copyState

	nu        []float64 // observer prediction, reused across every round
	logRatios []float64
	pendC     []int // copy indices awaiting the group's transmission
	pendSym   []int // their realized symbols
	actC      []int // active copy indices this round, ascending
	actS      []int // their speakers; -1 marks entries already transmitted
}

func newAmortizedRunner(spec core.Spec, prior core.Prior) (*amortizedRunner, error) {
	ps, err := core.NewPriorSampler(prior)
	if err != nil {
		return nil, err
	}
	return &amortizedRunner{spec: spec, prior: prior, ps: ps}, nil
}

// run executes n independent copies of the spec on inputs drawn from the
// prior, compressing each parallel round with SimulatedProductTransmit.
// Copies that halt early simply drop out of later rounds (the sequential
// AND protocol halts at the first zero), which only reduces cost. It draws
// inputs and messages from src in a fixed order: per copy the prior draws,
// then per round, per speaker group in first-seen order, per member copy
// in index order, one message draw followed by the group's simulated
// transmission draws. A runner is reused across runs, so sweeps share its
// observers, transcripts and group scratch.
func (r *amortizedRunner) run(copies int, src *rng.Source) (*AmortizedResult, error) {
	if copies < 1 {
		return nil, fmt.Errorf("compress: copy count %d < 1", copies)
	}
	if src == nil {
		return nil, fmt.Errorf("compress: nil randomness source")
	}
	for len(r.states) < copies {
		obs, err := core.NewObserver(r.prior)
		if err != nil {
			return nil, err
		}
		r.states = append(r.states, copyState{
			x:   make([]int, r.prior.NumPlayers()),
			obs: obs,
		})
	}
	states := r.states[:copies]
	for c := range states {
		st := &states[c]
		if _, err := r.ps.Sample(src, st.x); err != nil {
			return nil, err
		}
		st.obs.Reset()
		st.t = st.t[:0]
		st.done = false
		st.output = 0
		st.origBits = 0
	}

	result := &AmortizedResult{Copies: copies, Outputs: make([]int, copies)}
	for round := 0; ; round++ {
		if round > 1<<16 {
			return nil, fmt.Errorf("compress: combined protocol exceeded %d rounds", 1<<16)
		}
		// Determine each active copy's speaker. Copies sharing a speaker
		// form one group per round, processed in first-seen speaker order
		// (copy-index order within a group), sharing one product
		// transmission.
		r.actC, r.actS = r.actC[:0], r.actS[:0]
		for c := range states {
			st := &states[c]
			if st.done {
				continue
			}
			speaker, done, err := r.spec.NextSpeaker(st.t)
			if err != nil {
				return nil, err
			}
			if done {
				out, err := r.spec.Output(st.t)
				if err != nil {
					return nil, err
				}
				st.done = true
				st.output = out
				result.Outputs[c] = out
				continue
			}
			r.actC = append(r.actC, c)
			r.actS = append(r.actS, speaker)
		}
		if len(r.actC) == 0 {
			break
		}
		result.Rounds++
		for j := range r.actS {
			speaker := r.actS[j]
			if speaker < 0 {
				continue // already handled as part of an earlier group
			}
			r.logRatios = r.logRatios[:0]
			r.pendC, r.pendSym = r.pendC[:0], r.pendSym[:0]
			for jj := j; jj < len(r.actS); jj++ {
				if r.actS[jj] != speaker {
					continue
				}
				r.actS[jj] = -1
				c := r.actC[jj]
				st := &states[c]
				eta, err := r.spec.MessageDist(st.t, speaker, st.x[speaker])
				if err != nil {
					return nil, err
				}
				nu, err := st.obs.PredictMessageInto(r.spec, st.t, speaker, r.nu)
				if err != nil {
					return nil, err
				}
				r.nu = nu
				sym := eta.Sample(src)
				pe := eta.P(sym)
				pn := 0.0
				if sym >= 0 && sym < len(nu) {
					pn = nu[sym]
				}
				if pn == 0 {
					return nil, fmt.Errorf("compress: observer prior excludes realized message %d", sym)
				}
				r.logRatios = append(r.logRatios, math.Log2(pe/pn))
				symBits, err := r.spec.MessageBits(st.t, sym)
				if err != nil {
					return nil, err
				}
				st.origBits += symBits
				r.pendC = append(r.pendC, c)
				r.pendSym = append(r.pendSym, sym)
			}
			tx, err := SimulatedProductTransmit(r.logRatios, src)
			if err != nil {
				return nil, fmt.Errorf("compress: round %d speaker %d: %w", round, speaker, err)
			}
			result.CompressedBits += tx.Bits
			result.Transmissions++
			for p, c := range r.pendC {
				st := &states[c]
				sym := r.pendSym[p]
				if err := st.obs.Update(r.spec, st.t, speaker, sym); err != nil {
					return nil, err
				}
				st.t = append(st.t, sym)
			}
		}
	}
	for c := range states {
		st := &states[c]
		result.OriginalBits += st.origBits
		if !st.done {
			return nil, fmt.Errorf("compress: copy %d never halted", c)
		}
	}
	result.PerCopyBits = float64(result.CompressedBits) / float64(copies)
	return result, nil
}

// AmortizedCurve runs the amortized protocol over a sweep of copy counts, averaging
// `repeats` executions per point: the data behind experiment E11. Each
// entry reports the mean per-copy compressed cost.
type AmortizedPoint struct {
	Copies      int
	PerCopyBits float64
	PerCopyOrig float64
}

// AmortizedCurve measures per-copy compressed cost as the number of
// parallel copies grows. One runner — observers, transcripts, group
// scratch — is shared across the whole grid.
func AmortizedCurve(spec core.Spec, prior core.Prior, copyCounts []int, repeats int, src *rng.Source) ([]AmortizedPoint, error) {
	if repeats < 1 {
		return nil, fmt.Errorf("compress: repeats %d < 1", repeats)
	}
	runner, err := newAmortizedRunner(spec, prior)
	if err != nil {
		return nil, err
	}
	out := make([]AmortizedPoint, 0, len(copyCounts))
	for _, n := range copyCounts {
		var bits, orig float64
		for r := 0; r < repeats; r++ {
			res, err := runner.run(n, src)
			if err != nil {
				return nil, err
			}
			bits += res.PerCopyBits
			orig += float64(res.OriginalBits) / float64(n)
		}
		out = append(out, AmortizedPoint{
			Copies:      n,
			PerCopyBits: bits / float64(repeats),
			PerCopyOrig: orig / float64(repeats),
		})
	}
	return out, nil
}
