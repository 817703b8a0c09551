package broadcastic_test

// Engine micro-benchmarks: they time the Monte-Carlo estimator and the IR
// compiler directly, so a change in an experiment's cost can be traced to
// the engine it came from. The experiments' tables are cmd/experiments'
// output (EXPERIMENTS_RAW.txt at full scale); the end-to-end measurement,
// a job submitted over HTTP with its time attributed layer by layer, is
// the service benchmark in bench/ (bench/README.md).
//
// These are plain go test benchmarks: ns/op and allocs/op are the testing
// package's own.

import (
	"testing"

	"broadcastic/internal/andk"
	"broadcastic/internal/core"
	"broadcastic/internal/dist"
	"broadcastic/internal/ir"
	"broadcastic/internal/prob"
	"broadcastic/internal/rng"
	"broadcastic/internal/telemetry"
)

// benchEstimateCICCompiled times EstimateCIC on the sequential AND_k
// protocol under the paper's hard distribution μ — the exact workload
// inside E4/E5 — at a fixed modest sample count so ns/op measures engine
// cost, not grid size. It runs the default engine resolution but fails
// the benchmark unless the compiled-IR program served every sample, so
// the number can never silently degrade into measuring the scalar
// fallback.
func benchEstimateCICCompiled(b *testing.B, k int) {
	b.Helper()
	spec, err := andk.NewSequential(k)
	if err != nil {
		b.Fatal(err)
	}
	mu, err := dist.NewMu(k)
	if err != nil {
		b.Fatal(err)
	}
	const samples = 200
	opts := core.EstimateOptions{Recorder: telemetry.NewCollector()}
	// Untimed warm-up op: builds the CDF caches and compiles and caches
	// the program, so a single timed iteration measures cached-program
	// execution, keeping ns/op meaningful at -benchtime 1x. The timed ops
	// record into a fresh collector, so the warm-up's compile stays out.
	if _, err := core.EstimateCICOpts(spec, mu, rng.New(1), samples, opts); err != nil {
		b.Fatal(err)
	}
	col := telemetry.NewCollector()
	opts.Recorder = col
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := rng.New(1)
		if _, err := core.EstimateCICOpts(spec, mu, src, samples, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	snap := col.Snapshot()
	if got := snap[telemetry.CoreCICIRSamples]; got != float64(samples)*float64(b.N) {
		b.Fatalf("IR engine served %v samples, want %d×%d", got, samples, b.N)
	}
	if got := snap[telemetry.IRProgramMisses]; got != 0 {
		b.Fatalf("timed ops recompiled the program %v times, want cache hits only", got)
	}
}

func BenchmarkEstimateCICCompiled_K4(b *testing.B)  { benchEstimateCICCompiled(b, 4) }
func BenchmarkEstimateCICCompiled_K16(b *testing.B) { benchEstimateCICCompiled(b, 16) }
func BenchmarkEstimateCICCompiled_K64(b *testing.B) { benchEstimateCICCompiled(b, 64) }

// BenchmarkIRCompile times one uncached CompileEstimator of the K16
// sequential AND_k protocol under μ — the cost the program cache
// amortizes away. irCompileSpec adapts core.Spec's Transcript signatures
// to ir.Spec's plain []int ones and forwards StateKey, as internal/core
// does privately, so this is the merged per-edge compile.
func BenchmarkIRCompile(b *testing.B) {
	const k = 16
	spec, err := andk.NewSequential(k)
	if err != nil {
		b.Fatal(err)
	}
	mu, err := dist.NewMu(k)
	if err != nil {
		b.Fatal(err)
	}
	a := irCompileSpec{spec}
	if ir.CompileEstimator(a, mu) == nil {
		b.Fatal("K16 sequential AND compiles to nil")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ir.CompileEstimator(a, mu) == nil {
			b.Fatal("compile failed")
		}
	}
}

type irCompileSpec struct{ s core.Spec }

func (a irCompileSpec) NumPlayers() int { return a.s.NumPlayers() }
func (a irCompileSpec) InputSize() int  { return a.s.InputSize() }
func (a irCompileSpec) NextSpeaker(t []int) (int, bool, error) {
	return a.s.NextSpeaker(core.Transcript(t))
}
func (a irCompileSpec) MessageAlphabet(t []int) (int, error) {
	return a.s.MessageAlphabet(core.Transcript(t))
}
func (a irCompileSpec) MessageDist(t []int, player, input int) (prob.Dist, error) {
	return a.s.MessageDist(core.Transcript(t), player, input)
}
func (a irCompileSpec) MessageBits(t []int, symbol int) (int, error) {
	return a.s.MessageBits(core.Transcript(t), symbol)
}
func (a irCompileSpec) Output(t []int) (int, error) { return a.s.Output(core.Transcript(t)) }
func (a irCompileSpec) StateKey(t []int) uint64     { return a.s.(ir.StateKeyer).StateKey(t) }

// benchEstimateCICScalar is the same workload with the compiled engine
// disabled, keeping the scalar estimator's cost in view beside the
// compiled path's.
func benchEstimateCICScalar(b *testing.B, k int) {
	b.Helper()
	spec, err := andk.NewSequential(k)
	if err != nil {
		b.Fatal(err)
	}
	mu, err := dist.NewMu(k)
	if err != nil {
		b.Fatal(err)
	}
	const samples = 200
	opts := core.EstimateOptions{DisableIR: true}
	// Untimed warm-up op, as in benchEstimateCICCompiled.
	if _, err := core.EstimateCICOpts(spec, mu, rng.New(1), samples, opts); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := rng.New(1)
		if _, err := core.EstimateCICOpts(spec, mu, src, samples, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEstimateCICScalar_K16(b *testing.B) { benchEstimateCICScalar(b, 16) }
