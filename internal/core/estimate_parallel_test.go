package core_test

import (
	"runtime"
	"testing"

	"broadcastic/internal/andk"
	"broadcastic/internal/andk/andktest"
	"broadcastic/internal/core"
	"broadcastic/internal/dist"
	"broadcastic/internal/rng"
	"broadcastic/internal/telemetry"
)

// TestEstimateCICWorkerCountInvariance is the estimator half of the
// serial-equivalence guarantee: the sharded Monte-Carlo estimate must be
// bit-identical — not merely statistically close — at every worker count,
// because shard streams are derived serially and shard moments merge in
// shard order.
func TestEstimateCICWorkerCountInvariance(t *testing.T) {
	const k = 32
	// 1300 samples spans multiple shards including a ragged final shard.
	const samples = 1300
	spec, err := andk.NewSequential(k)
	if err != nil {
		t.Fatal(err)
	}
	mu, err := dist.NewMu(k)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.EstimateCICOpts(spec, mu, rng.New(17), samples, core.EstimateOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ref.Mean <= 0 || ref.StdErr <= 0 || ref.MeanBits <= 0 {
		t.Fatalf("degenerate reference estimate %+v", ref)
	}
	for _, workers := range []int{1, 2, 4, runtime.GOMAXPROCS(0), 0} {
		got, err := core.EstimateCICOpts(spec, mu, rng.New(17), samples, core.EstimateOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if got.Mean != ref.Mean || got.StdErr != ref.StdErr ||
			got.MeanBits != ref.MeanBits || got.Samples != ref.Samples {
			t.Fatalf("workers=%d: estimate %+v differs from serial %+v", workers, got, ref)
		}
	}
}

// TestEstimateCICShardRaggedBudgets checks sample budgets around the shard
// boundary: below one shard, exactly one shard, and a few shards plus a
// remainder must all account for every requested sample.
func TestEstimateCICShardRaggedBudgets(t *testing.T) {
	const k = 4
	spec, err := andk.NewSequential(k)
	if err != nil {
		t.Fatal(err)
	}
	mu, err := dist.NewMu(k)
	if err != nil {
		t.Fatal(err)
	}
	for _, samples := range []int{1, 3, 511, 512, 513, 1025} {
		est, err := core.EstimateCICOpts(spec, mu, rng.New(3), samples, core.EstimateOptions{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if est.Samples != samples {
			t.Fatalf("samples=%d: estimate reports %d samples", samples, est.Samples)
		}
		if est.MeanBits <= 0 {
			t.Fatalf("samples=%d: non-positive mean bits %v", samples, est.MeanBits)
		}
	}
}

// TestEstimateCICCompiledMatchesScalar is the engine half of the
// serial-equivalence guarantee: the compiled-IR engine (the default) and
// the scalar engine (IR disabled) must produce the identical CICEstimate —
// every field, every bit — at 1 and 4 workers, for the AND_k protocols
// under μ from small k up to k=2048, where their programs score per edge
// on merged states. The telemetry counter proves the IR engine served
// every sample rather than silently falling back.
func TestEstimateCICCompiledMatchesScalar(t *testing.T) {
	// 1300 samples spans multiple shards including a ragged final shard.
	const samples = 1300
	for _, k := range []int{4, 32, 64, 1024, 2048} {
		mu, err := dist.NewMu(k)
		if err != nil {
			t.Fatal(err)
		}
		seq, err := andk.NewSequential(k)
		if err != nil {
			t.Fatal(err)
		}
		all, err := andk.NewBroadcastAll(k)
		if err != nil {
			t.Fatal(err)
		}
		trunc, err := andktest.NewTruncated(k, (k+1)/2)
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range []core.Spec{seq, all, trunc} {
			for _, workers := range []int{1, 4} {
				col := telemetry.NewCollector()
				compiled, err := core.EstimateCICOpts(spec, mu, rng.New(17), samples,
					core.EstimateOptions{Workers: workers, Recorder: col})
				if err != nil {
					t.Fatal(err)
				}
				if got := col.Snapshot()[telemetry.CoreCICIRSamples]; got != samples {
					t.Fatalf("k=%d workers=%d %T: IR engine served %v samples, want %d",
						k, workers, spec, got, samples)
				}
				scalar, err := core.EstimateCICOpts(spec, mu, rng.New(17), samples,
					core.EstimateOptions{Workers: workers, DisableIR: true})
				if err != nil {
					t.Fatal(err)
				}
				if *compiled != *scalar {
					t.Fatalf("k=%d workers=%d %T: compiled %+v != scalar %+v",
						k, workers, spec, compiled, scalar)
				}
			}
		}
	}
}

// TestEstimateCICLazyFallsBackToScalar pins the engine fallback end to
// end: the Lazy protocol's opening coin is a randomized message and
// player 0 speaks twice, so its program scores per leaf — the compiled-IR
// engine still serves it by default, and with IR disabled it must run on
// the scalar engine with the identical result.
func TestEstimateCICLazyFallsBackToScalar(t *testing.T) {
	lazy, err := andk.NewLazy(8, 0.25, 0)
	if err != nil {
		t.Fatal(err)
	}
	mu, err := dist.NewMu(8)
	if err != nil {
		t.Fatal(err)
	}
	col := telemetry.NewCollector()
	est, err := core.EstimateCICOpts(lazy, mu, rng.New(5), 600,
		core.EstimateOptions{Workers: 2, Recorder: col})
	if err != nil {
		t.Fatal(err)
	}
	if est.MeanBits <= 0 {
		t.Fatalf("degenerate estimate %+v", est)
	}
	if got := col.Snapshot()[telemetry.CoreCICIRSamples]; got != 600 {
		t.Fatalf("IR engine served %v samples of a randomized protocol, want 600", got)
	}
	scol := telemetry.NewCollector()
	scalar, err := core.EstimateCICOpts(lazy, mu, rng.New(5), 600,
		core.EstimateOptions{Workers: 2, Recorder: scol, DisableIR: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := scol.Snapshot()[telemetry.CoreCICIRSamples]; got != 0 {
		t.Fatalf("IR engine engaged with DisableIR set: %v samples", got)
	}
	if *scalar != *est {
		t.Fatalf("compiled estimate %+v != scalar estimate %+v", est, scalar)
	}
}

func TestEstimateCICValidationWithWorkers(t *testing.T) {
	spec, _ := andk.NewSequential(3)
	mu, _ := dist.NewMu(3)
	if _, err := core.EstimateCICOpts(spec, mu, nil, 10, core.EstimateOptions{Workers: 4}); err == nil {
		t.Fatal("nil source succeeded")
	}
	if _, err := core.EstimateCICOpts(spec, mu, rng.New(1), 0, core.EstimateOptions{Workers: 4}); err == nil {
		t.Fatal("zero samples succeeded")
	}
}
