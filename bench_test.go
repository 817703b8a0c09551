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
// Machine-readable output: with BROADCASTIC_BENCH_JSON=<path> set, the
// shared harness aggregates every benchmark invocation (across -count
// repeats) and TestMain writes one benchjson File to <path> — the format
// the CI perf gate (cmd/benchgate) compares against BENCH_baseline.json.
// Each entry carries mean and min ns/op, allocs/op, recorded bits/op
// (board + wire bits where the instrumented layers ran) and the full
// per-op telemetry snapshot.

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"broadcastic/internal/andk"
	"broadcastic/internal/core"
	"broadcastic/internal/dist"
	"broadcastic/internal/ir"
	"broadcastic/internal/pool"
	"broadcastic/internal/prob"
	"broadcastic/internal/prob/probtest"
	"broadcastic/internal/rng"
	"broadcastic/internal/sim"
	"broadcastic/internal/telemetry"
	"broadcastic/internal/telemetry/benchjson"
)

func benchScale() string {
	if os.Getenv("BROADCASTIC_SCALE") == "quick" {
		return "quick"
	}
	return "full"
}

func benchConfig() sim.Config {
	cfg := sim.Config{Seed: 1, Scale: sim.Full}
	if benchScale() == "quick" {
		cfg.Scale = sim.Quick
	}
	if w, err := strconv.Atoi(os.Getenv("BROADCASTIC_WORKERS")); err == nil {
		cfg.Workers = w
	}
	return cfg
}

// benchSamples accumulates one sample per benchmark invocation (so -count N
// contributes N samples per op) for the TestMain JSON export.
var benchSamples struct {
	sync.Mutex
	byName map[string]*benchjson.Entry
}

// recordSample folds one benchmark invocation into the aggregate entry:
// iterations sum, ns/op as the mean of sample means plus the min sample,
// allocs/op and metrics as running means across samples.
func recordSample(name string, iters int64, nsPerOp, allocsPerOp float64, snapshot map[string]float64) {
	benchSamples.Lock()
	defer benchSamples.Unlock()
	if benchSamples.byName == nil {
		benchSamples.byName = make(map[string]*benchjson.Entry)
	}
	e := benchSamples.byName[name]
	if e == nil {
		e = &benchjson.Entry{Name: name, MinNsPerOp: nsPerOp}
		benchSamples.byName[name] = e
	}
	n := float64(e.Samples)
	e.Samples++
	e.Iterations += iters
	e.NsPerOp = (e.NsPerOp*n + nsPerOp) / (n + 1)
	if nsPerOp < e.MinNsPerOp {
		e.MinNsPerOp = nsPerOp
	}
	e.AllocsPerOp = (e.AllocsPerOp*n + allocsPerOp) / (n + 1)
	bits := snapshot[telemetry.BlackboardBits] + snapshot[telemetry.NetrunWireBits]
	e.BitsPerOp = (e.BitsPerOp*n + bits) / (n + 1)
	if len(snapshot) > 0 && e.Metrics == nil {
		e.Metrics = make(map[string]float64, len(snapshot))
	}
	for k, v := range snapshot {
		e.Metrics[k] = (e.Metrics[k]*n + v) / (n + 1)
	}
}

// writeBenchJSON exports the aggregated samples to path.
func writeBenchJSON(path string) error {
	benchSamples.Lock()
	defer benchSamples.Unlock()
	if len(benchSamples.byName) == 0 {
		return nil
	}
	f := benchjson.New(benchScale(), pool.Workers(benchConfig().Workers))
	f.GeneratedAt = time.Now().UTC().Format(time.RFC3339)
	for _, e := range benchSamples.byName {
		f.AddEntry(*e)
	}
	return benchjson.WriteFile(path, f)
}

func TestMain(m *testing.M) {
	code := m.Run()
	if path := os.Getenv("BROADCASTIC_BENCH_JSON"); path != "" && code == 0 {
		if err := writeBenchJSON(path); err != nil {
			fmt.Fprintf(os.Stderr, "bench json export: %v\n", err)
			code = 1
		}
	}
	os.Exit(code)
}

func runExperiment(b *testing.B, f func(sim.Config) (*sim.Table, error)) {
	b.Helper()
	rec := telemetry.NewCollector()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocsBefore := ms.Mallocs
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := benchConfig()
		cfg.Recorder = rec
		tbl, err := f(cfg)
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
	elapsed := b.Elapsed()
	runtime.ReadMemStats(&ms)
	n := float64(b.N)
	snap := rec.Snapshot()
	for k, v := range snap {
		snap[k] = v / n
	}
	recordSample(b.Name(), int64(b.N), float64(elapsed)/n, float64(ms.Mallocs-mallocsBefore)/n, snap)
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
// time the Monte-Carlo estimator and the categorical sampler directly, so
// the BENCH_*.json trajectory shows where an experiment-level change came
// from. They flow through recordSample like everything else and are gated
// by cmd/benchgate alongside the experiment entries.

// benchEstimateCICCompiled times EstimateCIC on the sequential AND_k
// protocol under the paper's hard distribution μ — the exact workload
// inside E4/E5 — at a fixed modest sample count so ns/op measures engine
// cost, not grid size. It runs the default engine resolution but fails
// the benchmark unless the compiled-IR program served every sample, so
// the gated number can never silently degrade into measuring the scalar
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
	col := telemetry.NewCollector()
	opts := core.EstimateOptions{Recorder: col}
	// Untimed warm-up op: builds the CDF caches and compiles and caches
	// the program, so a single timed iteration measures cached-program
	// execution, keeping ns/op meaningful at -benchtime 1x.
	if _, err := core.EstimateCICOpts(spec, mu, rng.New(1), samples, opts); err != nil {
		b.Fatal(err)
	}
	col.Reset()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocsBefore := ms.Mallocs
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := rng.New(1)
		if _, err := core.EstimateCICOpts(spec, mu, src, samples, opts); err != nil {
			b.Fatal(err)
		}
	}
	elapsed := b.Elapsed()
	runtime.ReadMemStats(&ms)
	b.StopTimer()
	snap := col.Snapshot()
	if got := snap[telemetry.CoreCICIRSamples]; got != float64(samples)*float64(b.N) {
		b.Fatalf("IR engine served %v samples, want %d×%d", got, samples, b.N)
	}
	if got := snap[telemetry.IRProgramMisses]; got != 0 {
		b.Fatalf("timed ops recompiled the program %v times, want cache hits only", got)
	}
	n := float64(b.N)
	for name, v := range snap {
		snap[name] = v / n
	}
	recordSample(b.Name(), int64(b.N), float64(elapsed)/n, float64(ms.Mallocs-mallocsBefore)/n, snap)
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
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocsBefore := ms.Mallocs
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ir.CompileEstimator(a, mu) == nil {
			b.Fatal("compile failed")
		}
	}
	elapsed := b.Elapsed()
	runtime.ReadMemStats(&ms)
	n := float64(b.N)
	recordSample(b.Name(), int64(b.N), float64(elapsed)/n, float64(ms.Mallocs-mallocsBefore)/n, nil)
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
// disabled, keeping the scalar estimator's cost on file so the
// BENCH_*.json trajectory shows the compiled win (and any scalar
// regression) separately from the default path.
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
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocsBefore := ms.Mallocs
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := rng.New(1)
		if _, err := core.EstimateCICOpts(spec, mu, src, samples, opts); err != nil {
			b.Fatal(err)
		}
	}
	elapsed := b.Elapsed()
	runtime.ReadMemStats(&ms)
	n := float64(b.N)
	recordSample(b.Name(), int64(b.N), float64(elapsed)/n, float64(ms.Mallocs-mallocsBefore)/n, nil)
}

func BenchmarkEstimateCICScalar_K16(b *testing.B) { benchEstimateCICScalar(b, 16) }

// benchDistSample times prob.Dist.Sample over a 256-outcome distribution
// (comfortably above cdfMinSize, so the production size heuristic picks
// the table), with and without the cumulative-distribution cache
// (Uncached strips it), pinning the linear-scan → binary-search win and
// watching for cache construction creep. One op is a fixed batch of
// draws (with the cache built before timing), so ns/op is meaningful
// even at -benchtime 1x — the regime the baseline-refresh procedure
// runs in.
func benchDistSample(b *testing.B, cached bool) {
	b.Helper()
	const drawsPerOp = 1000
	d, err := probtest.Uniform(256)
	if err != nil {
		b.Fatal(err)
	}
	if !cached {
		d = d.Uncached()
	}
	src := rng.New(1)
	sink := d.Sample(src) // warm-up draw builds the CDF cache when present
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocsBefore := ms.Mallocs
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < drawsPerOp; j++ {
			sink += d.Sample(src)
		}
	}
	elapsed := b.Elapsed()
	runtime.ReadMemStats(&ms)
	if sink < 0 {
		b.Fatal("impossible")
	}
	n := float64(b.N)
	recordSample(b.Name(), int64(b.N), float64(elapsed)/n, float64(ms.Mallocs-mallocsBefore)/n, nil)
}

func BenchmarkDistSample_CachedCDF(b *testing.B)  { benchDistSample(b, true) }
func BenchmarkDistSample_LinearScan(b *testing.B) { benchDistSample(b, false) }
