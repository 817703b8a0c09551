package core

import (
	"fmt"
	"sync"

	"broadcastic/internal/prob"
	"broadcastic/internal/rng"
)

// execScratch is the reusable per-shard state of the Monte-Carlo estimator:
// the sampled input tuple, the per-player prior rows, the Lemma 3 q-factor
// rows, and the transcript path. A shard acquires one scratch, runs all of
// its samples through it, and releases it — the steady-state sample loop
// then performs zero heap allocations (pinned by TestCICSampleLoopZeroAllocs).
//
// The q rows live in one contiguous backing array (qBack) so a whole
// sample's factor state is a single cache-friendly block; the row headers
// are views carved out once at construction. The prior rows are refilled
// per sample via prob.Dist.ProbsInto, which reuses each row's capacity.
//
// Lifecycle rules (see DESIGN.md §8): everything in a scratch is valid only
// until the next sample — samples overwrite all of it; nothing retained
// across shards except via the pool, which hands a scratch to at most one
// shard at a time.
type execScratch struct {
	k         int
	inputSize int
	x         []int       // sampled input tuple, one entry per player
	priors    [][]float64 // per-player prior row views (refilled per sample)
	q         [][]float64 // q-factor row views into qBack
	qBack     []float64
	t         Transcript // transcript path, length reset per sample
}

func newExecScratch(k, inputSize int) *execScratch {
	sc := &execScratch{
		k:         k,
		inputSize: inputSize,
		x:         make([]int, k),
		priors:    make([][]float64, k),
		q:         make([][]float64, k),
		qBack:     make([]float64, k*inputSize),
	}
	for i := 0; i < k; i++ {
		sc.priors[i] = make([]float64, 0, inputSize)
		sc.q[i] = sc.qBack[i*inputSize : (i+1)*inputSize : (i+1)*inputSize]
	}
	return sc
}

// execScratchPool recycles scratches across shards. Shapes are constant
// within one estimation (and almost always across an experiment), so the
// shape check nearly always hits; a mismatched scratch is simply dropped.
var execScratchPool sync.Pool

func getExecScratch(k, inputSize int) *execScratch {
	if v := execScratchPool.Get(); v != nil {
		sc := v.(*execScratch)
		if sc.k == k && sc.inputSize == inputSize {
			return sc
		}
	}
	return newExecScratch(k, inputSize)
}

func putExecScratch(sc *execScratch) { execScratchPool.Put(sc) }

// runSample draws one estimator sample: (z, x) from the prior, a simulated
// execution maintaining the q-factors, and the exact inner quantity
// Σ_i D(posterior_i ‖ prior_i) at the sampled transcript. It is the
// zero-allocation inner loop of EstimateCICOpts.
func (sc *execScratch) runSample(spec Spec, prior Prior, zd prob.Dist, src *rng.Source) (inner float64, bits int, err error) {
	z := zd.Sample(src)
	for i := 0; i < sc.k; i++ {
		d, err := prior.PlayerDist(z, i)
		if err != nil {
			return 0, 0, err
		}
		sc.priors[i] = d.ProbsInto(sc.priors[i])
		sc.x[i] = d.Sample(src)
	}
	for i := range sc.qBack {
		sc.qBack[i] = 1
	}
	bits, err = sc.sampleExecution(spec, src)
	if err != nil {
		return 0, 0, err
	}
	inner, err = qDivergenceSum(sc.q, sc.priors)
	if err != nil {
		return 0, 0, err
	}
	return inner, bits, nil
}

// sampleExecution simulates one run of spec on input sc.x, updating the
// q-factor rows in place, and returns the communication in bits. The
// transcript grows in sc.t, whose capacity persists across samples.
func (sc *execScratch) sampleExecution(spec Spec, src *rng.Source) (int, error) {
	t := sc.t[:0]
	bits := 0
	for step := 0; ; step++ {
		if step > defaultMaxDepth {
			return 0, fmt.Errorf("%w (%d)", ErrTreeDepth, defaultMaxDepth)
		}
		speaker, done, err := spec.NextSpeaker(t)
		if err != nil {
			return 0, fmt.Errorf("core: NextSpeaker after %v: %w", t, err)
		}
		if done {
			sc.t = t
			return bits, nil
		}
		if speaker < 0 || speaker >= len(sc.x) {
			return 0, fmt.Errorf("core: invalid speaker %d", speaker)
		}
		trueDist, err := spec.MessageDist(t, speaker, sc.x[speaker])
		if err != nil {
			return 0, err
		}
		sym := trueDist.Sample(src)
		// Counterfactual q-updates for every possible input of the speaker.
		qRow := sc.q[speaker]
		for v := range qRow {
			d, err := spec.MessageDist(t, speaker, v)
			if err != nil {
				return 0, err
			}
			qRow[v] *= d.P(sym)
		}
		symBits, err := spec.MessageBits(t, sym)
		if err != nil {
			return 0, err
		}
		bits += symBits
		t = append(t, sym)
	}
}
