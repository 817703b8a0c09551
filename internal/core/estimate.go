package core

import (
	"fmt"
	"math"

	"broadcastic/internal/ir"
	"broadcastic/internal/pool"
	"broadcastic/internal/rng"
	"broadcastic/internal/telemetry"
	"broadcastic/internal/telemetry/causal"
)

// CICEstimate is the result of a Monte-Carlo conditional-information-cost
// estimation.
type CICEstimate struct {
	// Mean is the estimated I(Π; X | D) in bits.
	Mean float64
	// StdErr is the standard error of the mean.
	StdErr float64
	// Samples is the number of sampled executions.
	Samples int
	// MeanBits is the average communication over the sampled executions.
	MeanBits float64
}

// cicShardSize is the per-shard sample granularity of the estimator. The
// shard layout is a pure function of the total sample count — never of the
// worker count — which is what makes the estimate bit-identical at any
// parallelism: workers only decide *when* a shard runs, not what it draws
// or where its moments land in the merge.
const cicShardSize = 512

// cicPartial holds one shard's raw moments; shards are merged exactly, in
// shard order, so the reduction is a fixed serial float computation.
type cicPartial struct {
	sum, sumSq, bitsSum float64
}

// EstimateOptions bundles the estimator's optional knobs.
type EstimateOptions struct {
	// Workers caps the worker pool; <= 0 means one worker per CPU.
	Workers int
	// Recorder receives estimator telemetry: the sample and shard counts
	// and each shard's wall time. nil disables recording; a live one
	// leaves the estimate bit-identical, since recording draws nothing
	// from the sample streams.
	Recorder *telemetry.Collector
	// DisableIR forces the scalar engine even for keyed (spec, prior)
	// pairs the compiled-IR engine could serve. Bit-identical either way —
	// pinned by the ir_equiv tests — so it exists only for comparisons,
	// as the scalar reference, and for the -noir flag.
	DisableIR bool
	// Causal, when enabled, records one core.cic.shard span per estimator
	// shard (with the serving engine and shard index as attributes) into
	// the trace. Strictly observational, like Recorder.
	Causal causal.Context
}

// EstimateCICOpts estimates I(Π; X | D) by sampling executions. Each
// sample draws (z, x) from the prior, simulates the protocol while
// maintaining the Lemma 3 q-factors along the sampled path, and evaluates
// the *exact* inner quantity Σ_i D(posterior_i ‖ prior_i) at the resulting
// transcript. Because the inner term is exact, the estimator is unbiased
// with variance bounded by the inner term's variance; no transcript
// histograms are needed, so it scales to thousands of players.
//
// The sample budget is split into fixed-size shards, each drawing from its
// own child stream of src (see rng.Source.SplitN), evaluated by up to
// opts.Workers goroutines. The mean, standard error and mean communication
// are bit-identical for every worker count: shard streams are derived
// serially up front and shard moments are merged in shard order.
//
// Engine precedence per estimation: when the keyed (spec, prior) pair
// compiles to an ir.Program (cached across calls — see internal/ir),
// shards run the compiled table loop; otherwise they run on the scalar
// engine. Both share the shard layout and merge, so results are
// bit-identical across worker counts and across engines.
func EstimateCICOpts(spec Spec, prior Prior, src *rng.Source, samples int, opts EstimateOptions) (*CICEstimate, error) {
	if err := validateShapes(spec, prior); err != nil {
		return nil, err
	}
	if samples < 1 {
		return nil, fmt.Errorf("core: non-positive sample count %d", samples)
	}
	if src == nil {
		return nil, fmt.Errorf("core: nil randomness source")
	}
	var prog *ir.Program
	if !opts.DisableIR {
		prog = irEstimatorProgram(spec, prior, opts.Recorder, opts.Causal)
	}
	rec := opts.Recorder
	shards := (samples + cicShardSize - 1) / cicShardSize
	streams := src.SplitN(shards)
	rec.Count(telemetry.CoreCICSamples, int64(samples))
	rec.Count(telemetry.CoreCICShards, int64(shards))
	if prog != nil {
		rec.Count(telemetry.CoreCICIRSamples, int64(samples))
	}
	engine := "scalar"
	if prog != nil {
		engine = "ir"
	}
	parts, err := pool.Map(pool.Workers(opts.Workers), shards, func(i int) (cicPartial, error) {
		count := cicShardSize
		if i == shards-1 {
			count = samples - i*cicShardSize
		}
		// Attributes only for a recording context: formatting the shard
		// index would allocate on the untraced path.
		var span causal.Span
		if opts.Causal.Enabled() {
			span = opts.Causal.StartSpan(rec, causal.CoreShard,
				causal.Int("shard", i), causal.String("engine", engine))
		} else {
			span = opts.Causal.StartSpan(rec, causal.CoreShard)
		}
		var p cicPartial
		var err error
		if prog != nil {
			p.sum, p.sumSq, p.bitsSum = prog.Shard(streams[i], count)
		} else {
			p, err = cicShard(spec, prior, streams[i], count)
		}
		rec.Observe(telemetry.CoreCICShardNs, float64(span.End()))
		return p, err
	})
	if err != nil {
		return nil, err
	}
	var sum, sumSq, bitsSum float64
	for _, p := range parts {
		sum += p.sum
		sumSq += p.sumSq
		bitsSum += p.bitsSum
	}
	mean := sum / float64(samples)
	variance := sumSq/float64(samples) - mean*mean
	if variance < 0 {
		variance = 0
	}
	return &CICEstimate{
		Mean:     mean,
		StdErr:   math.Sqrt(variance / float64(samples)),
		Samples:  samples,
		MeanBits: bitsSum / float64(samples),
	}, nil
}

// cicShard draws count samples from src and accumulates their raw moments.
// All mutable state (input vector, q-factors, prior rows, transcript path)
// lives in an execScratch acquired once for the whole shard, so the sample
// loop itself is allocation-free (see scratch.go).
func cicShard(spec Spec, prior Prior, src *rng.Source, count int) (cicPartial, error) {
	zd, err := auxDist(prior)
	if err != nil {
		return cicPartial{}, err
	}
	sc := getExecScratch(spec.NumPlayers(), spec.InputSize())
	defer putExecScratch(sc)

	var p cicPartial
	for s := 0; s < count; s++ {
		inner, bits, err := sc.runSample(spec, prior, zd, src)
		if err != nil {
			return cicPartial{}, err
		}
		p.sum += inner
		p.sumSq += inner * inner
		p.bitsSum += float64(bits)
	}
	return p, nil
}
