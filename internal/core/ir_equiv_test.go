package core_test

// The compile-vs-dynamic equivalence harness: the compiled estimator must
// be bit-identical to the scalar engine it replaces — same estimates, same
// RNG stream positions — across the andk/disj/parallel spec families and
// randomly generated small specs. Engine selection hinges on ir.Keyer, and
// EstimateOptions.DisableIR forces the scalar engine on the identical
// (spec, prior) pair; comparing the two runs pins the equivalence.

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"broadcastic/internal/andk"
	"broadcastic/internal/andk/andktest"
	"broadcastic/internal/core"
	"broadcastic/internal/disj"
	"broadcastic/internal/dist"
	"broadcastic/internal/ir"
	"broadcastic/internal/prob"
	"broadcastic/internal/rng"
	"broadcastic/internal/telemetry"
)

// TestIRParallelEstimateMatchesDynamic runs the n-fold parallel task —
// ParallelSpec over ProductOfPriors, Theorem 4's direct-sum object —
// through the compiled engine and the dynamic engines, requiring
// bit-identical estimates and proof via counters that the compiled
// engine really served the default run.
func TestIRParallelEstimateMatchesDynamic(t *testing.T) {
	base, err := andk.NewSequential(4)
	if err != nil {
		t.Fatal(err)
	}
	par, err := core.NewParallelSpec(base, 2)
	if err != nil {
		t.Fatal(err)
	}
	mu, err := dist.NewMu(4)
	if err != nil {
		t.Fatal(err)
	}
	prod, err := core.NewProductOfPriors(mu, 2)
	if err != nil {
		t.Fatal(err)
	}
	const samples = 700
	for _, workers := range []int{1, 4} {
		col := telemetry.NewCollector()
		compiled, err := core.EstimateCICOpts(par, prod, rng.New(21), samples,
			core.EstimateOptions{Workers: workers, Recorder: col})
		if err != nil {
			t.Fatal(err)
		}
		if got := col.Snapshot()[telemetry.CoreCICIRSamples]; got != samples {
			t.Fatalf("workers=%d: IR engine served %v samples, want %d", workers, got, samples)
		}
		scalar, err := core.EstimateCICOpts(par, prod, rng.New(21), samples,
			core.EstimateOptions{Workers: workers, DisableIR: true})
		if err != nil {
			t.Fatal(err)
		}
		if *compiled != *scalar {
			t.Fatalf("workers=%d: compiled %+v != dynamic %+v", workers, compiled, scalar)
		}
	}
}

// TestIRIneligibleSpecFallsBackIdentically pins the eligibility gate's
// fallback: DISJ at n=13 has 2^13 input values per player — past the
// compiler's input-size gate — so the default run must serve every
// sample dynamically and still produce the bit-identical estimate.
func TestIRIneligibleSpecFallsBackIdentically(t *testing.T) {
	dj, err := disj.NewSequentialSpec(13, 2)
	if err != nil {
		t.Fatal(err)
	}
	mun, err := dist.NewMuN(2, 13)
	if err != nil {
		t.Fatal(err)
	}
	const samples = 60
	col := telemetry.NewCollector()
	def, err := core.EstimateCICOpts(dj, mun, rng.New(11), samples,
		core.EstimateOptions{Workers: 2, Recorder: col})
	if err != nil {
		t.Fatal(err)
	}
	snap := col.Snapshot()
	if got := snap[telemetry.CoreCICIRSamples]; got != 0 {
		t.Fatalf("IR engine served %v samples of an ineligible spec", got)
	}
	dyn, err := core.EstimateCICOpts(dj, mun, rng.New(11), samples,
		core.EstimateOptions{Workers: 2, DisableIR: true})
	if err != nil {
		t.Fatal(err)
	}
	if *def != *dyn {
		t.Fatalf("default estimate %+v != dynamic estimate %+v", def, dyn)
	}
}

// TestIRProgramCacheServesRepeatRuns is the amortization acceptance
// check: the first estimate of a (spec, prior) pair compiles exactly
// once, and a second identical run hits the program cache — no
// recompile — while producing the identical estimate.
func TestIRProgramCacheServesRepeatRuns(t *testing.T) {
	ir.ResetProgramCache()
	spec, err := andk.NewSequential(8)
	if err != nil {
		t.Fatal(err)
	}
	mu, err := dist.NewMu(8)
	if err != nil {
		t.Fatal(err)
	}
	const samples = 400
	first := telemetry.NewCollector()
	est1, err := core.EstimateCICOpts(spec, mu, rng.New(3), samples,
		core.EstimateOptions{Recorder: first})
	if err != nil {
		t.Fatal(err)
	}
	snap1 := first.Snapshot()
	if got := snap1[telemetry.IRProgramMisses]; got != 1 {
		t.Fatalf("first run compiled %v times, want 1", got)
	}
	if snap1[telemetry.IRCompileNs+".count"] == 0 && snap1[telemetry.IRCompileNs] == 0 {
		t.Logf("note: no %s observation surfaced in snapshot %v", telemetry.IRCompileNs, snap1)
	}
	second := telemetry.NewCollector()
	est2, err := core.EstimateCICOpts(spec, mu, rng.New(3), samples,
		core.EstimateOptions{Recorder: second})
	if err != nil {
		t.Fatal(err)
	}
	snap2 := second.Snapshot()
	if got := snap2[telemetry.IRProgramHits]; got < 1 {
		t.Fatalf("second run saw %v program hits, want ≥ 1", got)
	}
	if got := snap2[telemetry.IRProgramMisses]; got != 0 {
		t.Fatalf("second run recompiled %v times, want 0", got)
	}
	if *est1 != *est2 {
		t.Fatalf("repeat run estimate %+v != first %+v", est2, est1)
	}
}

// treeSpec keeps a keyed spec's behavior and (renamed) IR key but hides
// its StateKey, so the compiled engine runs the unmerged transcript tree.
type treeSpec struct{ core.Spec }

func (s treeSpec) IRKey() string { return "tree/" + s.Spec.(ir.Keyer).IRKey() }

func andkSpecs(t *testing.T, k int) map[string]core.Spec {
	t.Helper()
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
	return map[string]core.Spec{"sequential": seq, "broadcast-all": all, "truncated": trunc}
}

// TestMergedCompileMatchesTreeAndScalar is the state-merging soundness
// check: at every k where the unmerged transcript tree still compiles,
// the merged program, the tree program and the scalar engine must agree
// bit for bit on the AND_k protocols under μ, and the merged program must
// really be smaller where the tree branches.
func TestMergedCompileMatchesTreeAndScalar(t *testing.T) {
	const samples = 1300
	for k := 2; k <= 12; k++ {
		mu, err := dist.NewMu(k)
		if err != nil {
			t.Fatal(err)
		}
		for name, spec := range andkSpecs(t, k) {
			merged, tree := compileAdapted(spec, mu), compileAdapted(treeSpec{spec}, mu)
			if merged == nil || tree == nil || !merged.PerEdge() || !tree.PerEdge() {
				t.Fatalf("k=%d %s: merged %v, tree %v; want two per-edge programs", k, name, merged, tree)
			}
			if name == "broadcast-all" && tree.NumStates() != 1<<k-1 || merged.NumStates() > 2*k {
				t.Fatalf("k=%d %s: tree has %d states, merged %d", k, name, tree.NumStates(), merged.NumStates())
			}
			var ests [3]core.CICEstimate
			for i, run := range []struct {
				spec core.Spec
				opts core.EstimateOptions
			}{
				{spec, core.EstimateOptions{Workers: 2}},
				{treeSpec{spec}, core.EstimateOptions{Workers: 2}},
				{spec, core.EstimateOptions{Workers: 2, DisableIR: true}},
			} {
				col := telemetry.NewCollector()
				run.opts.Recorder = col
				est, err := core.EstimateCICOpts(run.spec, mu, rng.New(uint64(k)), samples, run.opts)
				if err != nil {
					t.Fatal(err)
				}
				want := float64(samples)
				if run.opts.DisableIR {
					want = 0
				}
				if got := col.Snapshot()[telemetry.CoreCICIRSamples]; got != want {
					t.Fatalf("k=%d %s run %d: IR engine served %v samples, want %v", k, name, i, got, want)
				}
				ests[i] = *est
			}
			if ests[0] != ests[1] || ests[1] != ests[2] {
				t.Fatalf("k=%d %s: merged %+v, tree %+v, scalar %+v", k, name, ests[0], ests[1], ests[2])
			}
		}
	}
}

// TestAndKProgramShapes pins the merged estimator programs of the AND_k
// protocols under μ: Sequential has k interior states, BroadcastAll at
// most 2k and Truncated(k, m) m, for every k up to 2048, all scoring per
// edge.
func TestAndKProgramShapes(t *testing.T) {
	for _, k := range []int{2, 3, 16, 17, 64, 1024, 2048} {
		mu, err := dist.NewMu(k)
		if err != nil {
			t.Fatal(err)
		}
		want := map[string]int{"sequential": k, "broadcast-all": 2*k - 1, "truncated": (k + 1) / 2}
		for name, spec := range andkSpecs(t, k) {
			p := compileAdapted(spec, mu)
			if p == nil || !p.PerEdge() {
				t.Fatalf("k=%d %s: compiled to %v, want a per-edge program", k, name, p)
			}
			if p.NumStates() != want[name] {
				t.Fatalf("k=%d %s: %d interior states, want %d", k, name, p.NumStates(), want[name])
			}
		}
	}
}

// --- Property-based equivalence over random small specs ------------------

func qmix(v uint64) uint64 {
	v ^= v >> 33
	v *= 0xff51afd7ed558ccd
	v ^= v >> 33
	v *= 0xc4ceb9fe1a85ec53
	v ^= v >> 33
	return v
}

// quickSpec is a randomized-but-deterministic protocol: every control
// decision is a hash of the transcript so far (and the compile-relevant
// arguments), so the spec is a consistent pure function of its inputs
// while exercising varied speakers, alphabets, point masses, zero-mass
// symbols and ragged bit widths. A monotone quickSpec lets the player at
// depth t be offset+t, so no player speaks twice and, under exact prior
// rows, its program scores per edge.
type quickSpec struct {
	k, inputSize, alphabet, rounds int
	seed                           uint64
	monotone                       bool
}

func (s quickSpec) fold(t core.Transcript) uint64 {
	h := s.seed
	for _, m := range t {
		h = qmix(h + uint64(m) + 0x9e3779b97f4a7c15)
	}
	return h
}

func (s quickSpec) NumPlayers() int { return s.k }
func (s quickSpec) InputSize() int  { return s.inputSize }

func (s quickSpec) NextSpeaker(t core.Transcript) (int, bool, error) {
	if len(t) >= s.rounds {
		return 0, true, nil
	}
	if s.monotone {
		return s.k - s.rounds + len(t), false, nil
	}
	return int(qmix(s.fold(t)+1) % uint64(s.k)), false, nil
}

func (s quickSpec) MessageAlphabet(t core.Transcript) (int, error) { return s.alphabet, nil }

func (s quickSpec) MessageDist(t core.Transcript, player, input int) (prob.Dist, error) {
	h := qmix(s.fold(t) + uint64(input)*1000003 + 2)
	if h%5 == 0 {
		return prob.Point(s.alphabet, int(h>>8)%s.alphabet)
	}
	w := make([]float64, s.alphabet)
	for i := range w {
		w[i] = float64(1 + (h>>(7*uint(i)+3))%16)
	}
	if h%7 == 0 {
		w[int(h>>40)%s.alphabet] = 0 // exercise zero-mass symbol pruning
	}
	return prob.Normalize(w)
}

func (s quickSpec) MessageBits(t core.Transcript, symbol int) (int, error) {
	return 1 + int(qmix(s.fold(t)+uint64(symbol)+3)%2), nil
}

func (s quickSpec) Output(t core.Transcript) (int, error) {
	return int(qmix(s.fold(t)+4) % 3), nil
}

func (s quickSpec) IRKey() string {
	return fmt.Sprintf("quicktest.spec/%d,%d,%d,%d,%x,%t", s.k, s.inputSize, s.alphabet, s.rounds, s.seed, s.monotone)
}

// keyedQuickSpec adds a sufficient state to quickSpec: every method reads
// t only through len(t) and fold(t), so equal (length, fold) prefixes have
// identical continuations and the estimator compile may merge them.
type keyedQuickSpec struct{ quickSpec }

func (s keyedQuickSpec) StateKey(t []int) uint64 { return s.fold(t) }

func (s keyedQuickSpec) IRKey() string { return "keyed/" + s.quickSpec.IRKey() }

// quickPrior is the matching randomized prior: hashed aux weights and
// per-(z, player) conditionals, with occasional point masses. An exact
// quickPrior draws integer weights summing to 16, so every row sums to
// exactly 1.0.
type quickPrior struct {
	k, inputSize, auxSize int
	seed                  uint64
	exact                 bool
}

func (p quickPrior) NumPlayers() int { return p.k }
func (p quickPrior) InputSize() int  { return p.inputSize }
func (p quickPrior) AuxSize() int    { return p.auxSize }

func (p quickPrior) AuxProb(z int) float64 {
	return float64(1 + qmix(p.seed+uint64(z)*13+5)%8)
}

func (p quickPrior) PlayerDist(z, player int) (prob.Dist, error) {
	h := qmix(p.seed + uint64(z)*101 + uint64(player)*10007 + 6)
	if h%6 == 0 {
		return prob.Point(p.inputSize, int(h>>8)%p.inputSize)
	}
	w := make([]float64, p.inputSize)
	rest := 16.0
	for i := range w {
		w[i] = float64(1 + (h>>(9*uint(i)+1))%9)
		if p.exact {
			w[i] = float64(1 + (h>>(9*uint(i)+1))%4)
			if i == len(w)-1 {
				w[i] = rest
			}
			rest -= w[i]
		}
	}
	return prob.Normalize(w)
}

func (p quickPrior) IRKey() string {
	return fmt.Sprintf("quicktest.prior/%d,%d,%d,%x,%t", p.k, p.inputSize, p.auxSize, p.seed, p.exact)
}

// irAdapter exposes a core.Spec to the ir compiler over plain []int
// transcripts, as core does privately; keyedAdapter forwards StateKey too.
type irAdapter struct{ core.Spec }

func (a irAdapter) NextSpeaker(t []int) (int, bool, error) {
	return a.Spec.NextSpeaker(core.Transcript(t))
}
func (a irAdapter) MessageAlphabet(t []int) (int, error) {
	return a.Spec.MessageAlphabet(core.Transcript(t))
}
func (a irAdapter) MessageDist(t []int, player, input int) (prob.Dist, error) {
	return a.Spec.MessageDist(core.Transcript(t), player, input)
}
func (a irAdapter) MessageBits(t []int, symbol int) (int, error) {
	return a.Spec.MessageBits(core.Transcript(t), symbol)
}
func (a irAdapter) Output(t []int) (int, error) { return a.Spec.Output(core.Transcript(t)) }

type keyedAdapter struct {
	irAdapter
	ir.StateKeyer
}

// compileAdapted compiles spec's estimator program the way the estimator
// does, merging prefixes when spec names its state.
func compileAdapted(spec core.Spec, prior core.Prior) *ir.Program {
	if sk, ok := spec.(ir.StateKeyer); ok {
		return ir.CompileEstimator(keyedAdapter{irAdapter{spec}, sk}, prior)
	}
	return ir.CompileEstimator(irAdapter{spec}, prior)
}

// TestIRQuickCompileDynamicEquivalence is the property-based half of the
// harness: for random small (spec, prior) pairs, the compiled engine
// must serve every sample (all shapes here are within the gates) and
// produce the bit-identical estimate to the scalar dynamic engine. Odd
// seeds draw monotone specs under exact priors, which must score per edge;
// seeds with bit 1 set add a StateKey, which sends the estimator compile
// through the merging walk.
func TestIRQuickCompileDynamicEquivalence(t *testing.T) {
	perEdge := 0
	property := func(seed uint64) bool {
		monotone := seed&1 == 1
		qs := quickSpec{
			k:         1 + int(qmix(seed)%3),
			inputSize: 2 + int(qmix(seed+1)%3),
			alphabet:  2 + int(qmix(seed+2)%2),
			rounds:    1 + int(qmix(seed+3)%3),
			seed:      seed,
			monotone:  monotone,
		}
		if monotone {
			qs.k = qs.rounds + int(qmix(seed)%2)
		}
		prior := quickPrior{
			k:         qs.k,
			inputSize: qs.inputSize,
			auxSize:   1 + int(qmix(seed+4)%3),
			seed:      seed,
			exact:     monotone,
		}
		var spec core.Spec = qs
		if seed&2 != 0 {
			spec = keyedQuickSpec{qs}
		}
		if prog := compileAdapted(spec, prior); prog == nil {
			t.Logf("seed %x: compiled to nil", seed)
			return false
		} else if prog.PerEdge() {
			perEdge++
		} else if monotone {
			t.Logf("seed %x: monotone spec under exact rows scores per leaf", seed)
			return false
		}
		const samples = 150
		col := telemetry.NewCollector()
		compiled, err := core.EstimateCICOpts(spec, prior, rng.New(seed), samples,
			core.EstimateOptions{Workers: 2, Recorder: col})
		if err != nil {
			t.Logf("seed %x: compiled estimate: %v", seed, err)
			return false
		}
		if got := col.Snapshot()[telemetry.CoreCICIRSamples]; got != samples {
			t.Logf("seed %x: IR engine served %v samples, want %d", seed, got, samples)
			return false
		}
		scalar, err := core.EstimateCICOpts(spec, prior, rng.New(seed), samples,
			core.EstimateOptions{Workers: 2, DisableIR: true})
		if err != nil {
			t.Logf("seed %x: scalar estimate: %v", seed, err)
			return false
		}
		if *compiled != *scalar {
			t.Logf("seed %x: compiled %+v != scalar %+v", seed, compiled, scalar)
			return false
		}
		if math.IsNaN(compiled.Mean) || compiled.MeanBits <= 0 {
			t.Logf("seed %x: degenerate estimate %+v", seed, compiled)
			return false
		}
		return true
	}
	if err := quick.Check(property, nil); err != nil {
		t.Fatal(err)
	}
	if perEdge == 0 {
		t.Fatal("no random spec reached per-edge scoring")
	}
}
