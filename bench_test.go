package broadcastic_test

// One benchmark per reproduced claim (see DESIGN.md §3 and EXPERIMENTS.md).
// Each benchmark regenerates its experiment's table and prints it once, so
//
//	go test -bench=. -benchmem
//
// reproduces every figure/table of the reproduction. Set
// BROADCASTIC_SCALE=quick to run the reduced parameter grids and
// BROADCASTIC_WORKERS=N to bound sweep parallelism (default: one worker
// per CPU; tables are bit-identical for every value).
//
// These are plain go test benchmarks: ns/op and allocs/op are the
// testing package's own. The end-to-end measurement, a job submitted over
// HTTP with its time attributed layer by layer, is the service benchmark
// in bench/ (bench/README.md).

import (
	"os"
	"strconv"
	"testing"

	"broadcastic/internal/andk"
	"broadcastic/internal/core"
	"broadcastic/internal/dist"
	"broadcastic/internal/ir"
	"broadcastic/internal/prob"
	"broadcastic/internal/rng"
	"broadcastic/internal/sim"
	"broadcastic/internal/telemetry"
)

func benchConfig() sim.Config {
	cfg := sim.Config{Seed: 1, Scale: sim.Full}
	if os.Getenv("BROADCASTIC_SCALE") == "quick" {
		cfg.Scale = sim.Quick
	}
	if w, err := strconv.Atoi(os.Getenv("BROADCASTIC_WORKERS")); err == nil {
		cfg.Workers = w
	}
	return cfg
}

func runExperiment(b *testing.B, f func(sim.Config) (*sim.Table, error)) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tbl, err := f(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.StopTimer()
			if err := tbl.Render(os.Stdout); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
}

func BenchmarkE1_DisjScalingN(b *testing.B)          { runExperiment(b, sim.E1DisjScalingN) }
func BenchmarkE2_DisjScalingK(b *testing.B)          { runExperiment(b, sim.E2DisjScalingK) }
func BenchmarkE3_NaiveVsOptimal(b *testing.B)        { runExperiment(b, sim.E3NaiveVsOptimal) }
func BenchmarkE4_AndInfoCost(b *testing.B)           { runExperiment(b, sim.E4AndInfoCost) }
func BenchmarkE5_DirectSum(b *testing.B)             { runExperiment(b, sim.E5DirectSum) }
func BenchmarkE6_TruncatedError(b *testing.B)        { runExperiment(b, sim.E6TruncatedError) }
func BenchmarkE7_InfoCommGap(b *testing.B)           { runExperiment(b, sim.E7InfoCommGap) }
func BenchmarkE8_GoodTranscripts(b *testing.B)       { runExperiment(b, sim.E8GoodTranscripts) }
func BenchmarkE9_PosteriorPointing(b *testing.B)     { runExperiment(b, sim.E9PosteriorPointing) }
func BenchmarkE10_RejectionSampler(b *testing.B)     { runExperiment(b, sim.E10RejectionSampler) }
func BenchmarkE11_AmortizedCompression(b *testing.B) { runExperiment(b, sim.E11AmortizedCompression) }
func BenchmarkE12_DivergenceBound(b *testing.B)      { runExperiment(b, sim.E12DivergenceBound) }
func BenchmarkE13_SparseIntersection(b *testing.B)   { runExperiment(b, sim.E13SparseIntersection) }

func BenchmarkE14_Ablations(b *testing.B) { runExperiment(b, sim.E14Ablations) }

func BenchmarkE15_TwoPartyBaseline(b *testing.B) { runExperiment(b, sim.E15TwoPartyBaseline) }

func BenchmarkE16_CostBreakdown(b *testing.B) { runExperiment(b, sim.E16CostBreakdown) }

func BenchmarkE17_PointwiseOr(b *testing.B) { runExperiment(b, sim.E17PointwiseOr) }

func BenchmarkE18_InternalVsExternal(b *testing.B) { runExperiment(b, sim.E18InternalVsExternal) }

func BenchmarkE19_WirelessContention(b *testing.B) { runExperiment(b, sim.E19WirelessContention) }

func BenchmarkE20_NetworkedOverhead(b *testing.B) { runExperiment(b, sim.E20NetworkedOverhead) }

func BenchmarkE21_TopologySeparation(b *testing.B) { runExperiment(b, sim.E21TopologySeparation) }

// --- Hot-path micro-benchmarks -------------------------------------------
//
// The engine-level counterparts of the experiment benchmarks above: they
// time the Monte-Carlo estimator and the IR compiler directly, so an
// experiment-level change can be traced to the engine it came from.

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
