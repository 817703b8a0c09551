package core

import (
	"fmt"
	"math"
	"strconv"

	"broadcastic/internal/info"
	"broadcastic/internal/ir"
	"broadcastic/internal/prob"
)

// CostReport aggregates the exact quantities computed from a transcript
// tree under a prior.
type CostReport struct {
	// CIC is the conditional information cost I(Π; X | D) in bits
	// (Definition 6).
	CIC float64
	// ExternalIC is the external information cost I(Π; X) in bits
	// (Definition 5), computed against the prior's marginal on X.
	ExternalIC float64
	// ExpectedBits is the expected communication under the prior.
	ExpectedBits float64
	// WorstCaseBits is the worst-case communication over all transcripts.
	WorstCaseBits int
	// NumTranscripts is the number of reachable complete transcripts.
	NumTranscripts int
}

// ExactCosts enumerates the transcript tree of spec and computes the exact
// information and communication costs under prior. Feasible whenever the
// transcript tree and the input domain are small (the regime the paper's
// Section 4 analysis operates in; larger instances use EstimateCIC).
//
// The report is a pure function of (spec, prior, lim), so a keyed pair
// (both sides ir.Keyer with a non-empty IRKey) is computed once per
// process: the first call stores the report in the compiled-program cache
// and every later call with the same keys and limits returns a fresh copy
// of it. Errors are not cached, and unkeyed pairs are computed every time.
func ExactCosts(spec Spec, prior Prior, lim TreeLimits) (*CostReport, error) {
	skey, pkey, ok := irKeys(spec, prior)
	if !ok {
		return exactCosts(spec, prior, lim)
	}
	key := "x|" + skey + "|" + pkey + "|" + strconv.Itoa(lim.MaxDepth) + "," + strconv.Itoa(lim.MaxLeaves)
	r, err := ir.Memo(key, func() (*CostReport, error) { return exactCosts(spec, prior, lim) })
	if err != nil {
		return nil, err
	}
	out := *r
	return &out, nil
}

func exactCosts(spec Spec, prior Prior, lim TreeLimits) (*CostReport, error) {
	if err := validateShapes(spec, prior); err != nil {
		return nil, err
	}
	leaves, err := EnumerateTranscripts(spec, lim)
	if err != nil {
		return nil, err
	}
	return exactCostsFromLeaves(leaves, prior)
}

func exactCostsFromLeaves(leaves []*Leaf, prior Prior) (*CostReport, error) {
	if len(leaves) == 0 {
		return nil, fmt.Errorf("core: protocol has no complete transcripts")
	}
	k := prior.NumPlayers()
	zDist, err := auxDist(prior)
	if err != nil {
		return nil, fmt.Errorf("core: auxiliary distribution: %w", err)
	}

	report := &CostReport{NumTranscripts: len(leaves)}
	for _, leaf := range leaves {
		if leaf.Bits > report.WorstCaseBits {
			report.WorstCaseBits = leaf.Bits
		}
	}

	// Conditional information cost and expected bits, via the factored
	// posterior formula (see the package comment).
	for z := 0; z < prior.AuxSize(); z++ {
		pz := zDist.P(z)
		if pz == 0 {
			continue
		}
		leafProbs, err := LeafDistGivenAux(leaves, prior, z)
		if err != nil {
			return nil, err
		}
		priors := make([][]float64, k)
		for i := 0; i < k; i++ {
			d, err := prior.PlayerDist(z, i)
			if err != nil {
				return nil, err
			}
			priors[i] = d.Probs()
		}
		for li, leaf := range leaves {
			pl := leafProbs[li]
			if pl == 0 {
				continue
			}
			report.ExpectedBits += pz * pl * float64(leaf.Bits)
			divSum, err := posteriorDivergenceSum(leaf, priors)
			if err != nil {
				return nil, err
			}
			report.CIC += pz * pl * divSum
		}
	}

	// External information cost I(Π; X): build the joint over
	// (input tuple, leaf) by marginalizing the auxiliary variable out.
	ext, err := externalICFromLeaves(leaves, prior, zDist)
	if err != nil {
		return nil, err
	}
	report.ExternalIC = ext
	return report, nil
}

// posteriorDivergenceSum computes Σ_i D(posterior_i ‖ prior_i) at a leaf,
// where posterior_i(v) ∝ prior_i(v)·Q[i][v].
func posteriorDivergenceSum(leaf *Leaf, priors [][]float64) (float64, error) {
	return qDivergenceSum(leaf.Q, priors)
}

// qDivergenceSum is posteriorDivergenceSum on bare q-factor rows; the
// Monte-Carlo hot path calls it directly so no Leaf needs to be built per
// sample. It delegates to info.QDivergenceSum, which the compiled-IR
// leaf-table builder also calls — sharing the exact float-op order is
// what pins the two execution paths bit-identical.
func qDivergenceSum(q [][]float64, priors [][]float64) (float64, error) {
	return info.QDivergenceSum(q, priors)
}

// externalICFromLeaves computes I(Π; X) exactly by enumerating all input
// tuples. The input-tuple space has InputSize^k points; callers should keep
// it small (the exact engine's intended regime).
func externalICFromLeaves(leaves []*Leaf, prior Prior, zDist prob.Dist) (float64, error) {
	k := prior.NumPlayers()
	inputSize := prior.InputSize()
	tuples := 1
	for i := 0; i < k; i++ {
		if tuples > 1<<22/inputSize {
			return 0, fmt.Errorf("core: input-tuple space %d^%d too large for exact external IC", inputSize, k)
		}
		tuples *= inputSize
	}

	// Marginal prior over tuples: Pr[x] = Σ_z p(z) Π_i prior_i(x_i | z).
	marginal := make([]float64, tuples)
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
		x := make([]int, k)
		for tIdx := 0; tIdx < tuples; tIdx++ {
			decodeTuple(tIdx, inputSize, x)
			p := pz
			for i, v := range x {
				p *= playerDists[i][v]
			}
			marginal[tIdx] += p
		}
	}

	// I(Π; X) = Σ_x Pr[x] Σ_ℓ Pr[ℓ|x] log( Pr[ℓ|x] / Pr[ℓ] ).
	leafMarginal := make([]float64, len(leaves))
	x := make([]int, k)
	for tIdx := 0; tIdx < tuples; tIdx++ {
		px := marginal[tIdx]
		if px == 0 {
			continue
		}
		decodeTuple(tIdx, inputSize, x)
		for li, leaf := range leaves {
			pl, err := leaf.ProbGivenInput(x)
			if err != nil {
				return 0, err
			}
			leafMarginal[li] += px * pl
		}
	}
	mi := 0.0
	for tIdx := 0; tIdx < tuples; tIdx++ {
		px := marginal[tIdx]
		if px == 0 {
			continue
		}
		decodeTuple(tIdx, inputSize, x)
		for li, leaf := range leaves {
			pl, err := leaf.ProbGivenInput(x)
			if err != nil {
				return 0, err
			}
			if pl == 0 {
				continue
			}
			mi += px * pl * math.Log2(pl/leafMarginal[li])
		}
	}
	if mi < 0 && mi > -1e-10 {
		mi = 0
	}
	return mi, nil
}

// decodeTuple writes the inputSize-ary digits of tIdx into x (player 0 in
// the least significant digit).
func decodeTuple(tIdx, inputSize int, x []int) {
	for i := range x {
		x[i] = tIdx % inputSize
		tIdx /= inputSize
	}
}

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

// WorstCaseError returns the maximum error probability of spec over the
// given inputs, against the target function f.
func WorstCaseError(spec Spec, inputs [][]int, f func(x []int) int, lim TreeLimits) (float64, error) {
	leaves, err := EnumerateTranscripts(spec, lim)
	if err != nil {
		return 0, err
	}
	worst := 0.0
	for _, x := range inputs {
		want := f(x)
		errP := 0.0
		total := 0.0
		for _, leaf := range leaves {
			pl, err := leaf.ProbGivenInput(x)
			if err != nil {
				return 0, err
			}
			total += pl
			if leaf.Output != want {
				errP += pl
			}
		}
		if math.Abs(total-1) > 1e-6 {
			return 0, fmt.Errorf("core: transcript probabilities on input %v sum to %v", x, total)
		}
		if e := errP / total; e > worst {
			worst = e
		}
	}
	return worst, nil
}

// AllBinaryInputs enumerates {0,1}^k, for use with WorstCaseError on
// small AND_k instances.
func AllBinaryInputs(k int) [][]int {
	out := make([][]int, 0, 1<<uint(k))
	for mask := 0; mask < 1<<uint(k); mask++ {
		x := make([]int, k)
		for i := range x {
			x[i] = mask >> uint(i) & 1
		}
		out = append(out, x)
	}
	return out
}

// AndFunc is AND_k as a target function on binary inputs.
func AndFunc(x []int) int {
	for _, v := range x {
		if v == 0 {
			return 0
		}
	}
	return 1
}
