// Package compress implements Section 6 of the paper: interactive
// compression in the broadcast model.
//
// The centerpiece is the Lemma 7 one-shot sampling protocol. A sender knows
// the true distribution η of the next message; every other player knows a
// prior ν (the external observer's Bayes prediction). Using public
// randomness — a shared infinite sequence of points (x_t, p_t) uniform in
// U × [0,1] — the sender picks the first point under the curve of η and
// describes it to the receivers in three self-delimiting fields:
//
//  1. the block index ⌈t/|U|⌉ of the chosen point (≈1 in expectation),
//  2. the log-ratio s = ⌈log₂(η(x)/ν(x))⌉ of the chosen value, after which
//     everyone discards points not under the scaled prior 2^s·ν,
//  3. the index of the chosen point inside the surviving candidate set P'
//     (|P'| ≈ 2^s, so ≈ s bits).
//
// The expected cost is D(η‖ν) + O(log D(η‖ν) + 1) bits. Our receivers
// compute P' exactly from the public randomness, so the implementation is
// errorless (the paper's ε covers model variants where P' must be
// approximated; see DESIGN.md).
//
// On top of the sampler, the package simulates the n-fold parallel
// execution of Theorem 3, whose per-copy cost approaches the external
// information cost as n grows. Example_compression also compresses single
// executions round by round, with the observer's exact Bayes prediction
// (from the Lemma 3 q-factors) as the receivers' prior.
package compress

import (
	"fmt"
	"math"
	"math/bits"

	"broadcastic/internal/encoding"
	"broadcastic/internal/prob"
	"broadcastic/internal/rng"
)

// TransmitResult reports one Lemma 7 transmission.
type TransmitResult struct {
	// Value is the transmitted outcome, distributed exactly as η.
	Value int
	// Bits is the total communication charged.
	Bits int
	// BlockIndex, LogRatio and CandidateCount expose the three fields for
	// the cost-accounting experiments.
	BlockIndex     int
	LogRatio       int
	CandidateCount int
	// Payload is the encoded message itself — exactly Bits bits, packed
	// MSB-first with zero padding. Set only by the explicit sampler
	// (Transmitter.Transmit); the simulated product transmission has no
	// concrete bits.
	Payload []byte
}

// maxSearchPoints bounds the rejection search; the success probability per
// point is 1/|U|, so |U|·64 failures indicate a malformed distribution.
const maxSearchFactor = 4096

// Transmitter runs Lemma 7 transmissions with reusable scratch: the block
// point buffers, the batched public-randomness words, the payload writer
// and the result struct are allocated once and recycled, so a warm
// Transmitter performs no heap allocations per call. The returned result
// (including its Payload) aliases that scratch and is valid only until the
// transmitter's next call; a caller that retains a result across calls
// gives each call its own NewTransmitter().
type Transmitter struct {
	xs      []int     // block point values
	ps      []float64 // block point heights
	words   []uint64  // batched raw draws (power-of-two universes)
	w       encoding.BitWriter
	payload []byte
	res     TransmitResult
}

// NewTransmitter returns an empty transmitter; scratch grows on first use.
func NewTransmitter() *Transmitter { return &Transmitter{} }

// Transmit runs the Lemma 7 protocol for one message: the sender holds η,
// the receivers hold ν, and both consume the same public randomness. It
// returns the value (∼η) and the exact bit cost. ν must dominate η's
// support. The result is valid until this transmitter's next call.
func (tr *Transmitter) Transmit(eta, nu prob.Dist, public *rng.Source) (*TransmitResult, error) {
	if public == nil {
		return nil, fmt.Errorf("compress: nil public randomness")
	}
	u := eta.Size()
	if nu.Size() != u {
		return nil, fmt.Errorf("compress: η support %d, ν support %d", u, nu.Size())
	}
	for x := 0; x < u; x++ {
		if eta.P(x) > 0 && nu.P(x) == 0 {
			return nil, fmt.Errorf("compress: prior ν assigns zero to value %d with η=%v", x, eta.P(x))
		}
	}

	// Rejection sampling over the shared point sequence, materialized one
	// |U|-point block at a time; blocks before the hit are discarded by
	// sender and receivers identically. Each point consumes an Intn(u) draw
	// then a Float64 draw. For power-of-two universes Intn always accepts
	// its single raw word (Lemire's threshold is zero), so a whole block's
	// raw words can be batch-filled with rng.Uint64s and mapped to the
	// exact same points the per-draw calls would produce.
	if cap(tr.xs) < u {
		tr.xs = make([]int, u)
		tr.ps = make([]float64, u)
	}
	xs, ps := tr.xs[:u], tr.ps[:u]
	pow2 := u&(u-1) == 0
	var shift uint
	if pow2 {
		shift = uint(64 - (bits.Len(uint(u)) - 1))
		if cap(tr.words) < 2*u {
			tr.words = make([]uint64, 2*u)
		}
	}

	var (
		chosenX    int
		chosenP    float64
		inBlockIdx int
		found      bool
		blockIndex int
	)
	for b := 1; b <= maxSearchFactor; b++ {
		if pow2 {
			words := tr.words[:2*u]
			public.Uint64s(words)
			for i := 0; i < u; i++ {
				// Lemire's Intn on a power-of-two bound is the word's top
				// log₂(u) bits; Float64 is the next word's top 53 bits.
				xs[i] = int(words[2*i] >> shift)
				ps[i] = float64(words[2*i+1]>>11) / (1 << 53)
			}
		} else {
			for i := 0; i < u; i++ {
				xs[i] = public.Intn(u)
				ps[i] = public.Float64()
			}
		}
		for i := 0; i < u; i++ {
			if !found && ps[i] < eta.P(xs[i]) {
				chosenX, chosenP = xs[i], ps[i]
				inBlockIdx = i
				found = true
			}
		}
		if found {
			blockIndex = b
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("compress: rejection sampling found no point in %d draws", u*maxSearchFactor)
	}
	_ = chosenP

	// Field 2: the log-ratio s = ⌈log₂(η(x)/ν(x))⌉ (may be negative).
	ratio := eta.P(chosenX) / nu.P(chosenX)
	s := int(math.Ceil(math.Log2(ratio)))
	scale := math.Pow(2, float64(s))

	// Candidate set P': points in the block under the scaled prior curve.
	candidates := 0
	chosenRank := -1
	for i := 0; i < u; i++ {
		if ps[i] < scale*nu.P(xs[i]) {
			if i == inBlockIdx {
				chosenRank = candidates
			}
			candidates++
		}
	}
	if chosenRank < 0 {
		return nil, fmt.Errorf("compress: accepted point escaped the scaled prior (s=%d)", s)
	}

	tr.w.Reset()
	if err := encoding.WriteEliasGamma(&tr.w, uint64(blockIndex)); err != nil {
		return nil, err
	}
	if err := encoding.WriteSignedGamma(&tr.w, int64(s)); err != nil {
		return nil, err
	}
	if err := tr.w.WriteBits(uint64(chosenRank), encoding.FixedWidth(uint64(candidates))); err != nil {
		return nil, err
	}
	tr.payload = tr.w.AppendTo(tr.payload[:0])

	tr.res = TransmitResult{
		Value:          chosenX,
		Bits:           tr.w.Len(),
		BlockIndex:     blockIndex,
		LogRatio:       s,
		CandidateCount: candidates,
		Payload:        tr.payload,
	}
	return &tr.res, nil
}

// CostModel returns the Lemma 7 cost bound D + O(log D + 1) evaluated with
// explicit constants used by experiment E10's comparison: D + 2·log₂(D+2) + c.
func CostModel(divergence float64, c float64) float64 {
	if divergence < 0 {
		divergence = 0
	}
	return divergence + 2*math.Log2(divergence+2) + c
}

// SimulatedProductTransmit simulates the cost and outcome of a Lemma 7
// transmission over a product universe U^n too large to materialize (the
// n-fold protocols of Theorem 3). The sender's combined message is sampled
// coordinate-wise upstream; what this function needs are the realized
// per-copy likelihood ratios η_c(x_c)/ν_c(x_c).
//
// The simulation reproduces the three cost fields of the explicit sampler
// in distribution, in the large-universe limit:
//
//   - the block index is geometric with success probability
//     1 − (1 − 1/|U|)^{|U|} → 1 − 1/e;
//   - s = ⌈log₂ Π_c ratio_c⌉ exactly;
//   - |P'| − 1 is Poisson with mean ≈ 2^s (each of the |U|−1 other points
//     survives independently with probability ≈ 2^s/|U|).
//
// See DESIGN.md for why this substitution preserves the Theorem 3 claim.
func SimulatedProductTransmit(logRatios []float64, src *rng.Source) (*TransmitResult, error) {
	if src == nil {
		return nil, fmt.Errorf("compress: nil randomness source")
	}
	total := 0.0
	for i, lr := range logRatios {
		if math.IsNaN(lr) {
			return nil, fmt.Errorf("compress: NaN log-ratio at copy %d", i)
		}
		if math.IsInf(lr, 1) {
			return nil, fmt.Errorf("compress: infinite log-ratio at copy %d (prior does not dominate)", i)
		}
		total += lr
	}
	s := int(math.Ceil(total))

	// Block index ~ Geometric(1 - 1/e).
	blockIndex := 1
	const blockHit = 1 - 1/math.E
	for !src.Bernoulli(blockHit) {
		blockIndex++
		if blockIndex > 1<<20 {
			return nil, fmt.Errorf("compress: simulated block search diverged")
		}
	}

	// Rank-field width = ⌈log₂ |P'|⌉ with |P'| − 1 ~ Poisson(2^s). For
	// large s the Poisson concentrates so tightly that the width is s
	// itself (the jitter is o(1) bits); only the small-mean regime needs
	// actual sampling. This keeps the simulation exact in expectation
	// without materializing 2^s candidates.
	var (
		candidates int
		rankWidth  int
	)
	mean := math.Pow(2, float64(s))
	if s <= 24 {
		candidates = poisson(src, mean) + 1
		rankWidth = encoding.FixedWidth(uint64(candidates))
	} else {
		candidates = -1 // too many to count explicitly
		rankWidth = s
	}

	bits := encoding.EliasGammaLen(uint64(blockIndex)) +
		encoding.SignedGammaLen(int64(s)) +
		rankWidth
	return &TransmitResult{
		Bits:           bits,
		BlockIndex:     blockIndex,
		LogRatio:       s,
		CandidateCount: candidates,
	}, nil
}

// poisson samples a Poisson variate. Knuth's product method for small
// means; normal approximation (rounded, clamped at 0) for large ones.
func poisson(src *rng.Source, mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 64 {
		v := int(math.Round(mean + math.Sqrt(mean)*src.NormFloat64()))
		if v < 0 {
			v = 0
		}
		return v
	}
	l := math.Exp(-mean)
	count := 0
	p := 1.0
	for {
		p *= src.Float64()
		if p <= l {
			return count
		}
		count++
		if count > 1<<20 {
			return count
		}
	}
}
