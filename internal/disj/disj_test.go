package disj

import (
	"fmt"
	"testing"

	"broadcastic/internal/bitvec"
	"broadcastic/internal/blackboard"
	"broadcastic/internal/encoding"
	"broadcastic/internal/rng"
)

func TestNewInstanceValidation(t *testing.T) {
	if _, err := NewInstance(0, []*bitvec.Vector{newVec(t, 0)}); err == nil {
		t.Fatal("n=0 succeeded")
	}
	if _, err := NewInstance(4, nil); err == nil {
		t.Fatal("no players succeeded")
	}
	if _, err := NewInstance(4, []*bitvec.Vector{nil}); err == nil {
		t.Fatal("nil set succeeded")
	}
	if _, err := NewInstance(4, []*bitvec.Vector{newVec(t, 5)}); err == nil {
		t.Fatal("universe mismatch succeeded")
	}
}

func TestGenerateDisjointIsDisjoint(t *testing.T) {
	src := rng.New(301)
	for trial := 0; trial < 50; trial++ {
		n := src.Intn(200) + 1
		k := src.Intn(8) + 1
		inst, err := GenerateDisjoint(src, n, k, 0.7)
		if err != nil {
			t.Fatal(err)
		}
		dis, err := inst.Disjoint()
		if err != nil {
			t.Fatal(err)
		}
		if !dis {
			t.Fatalf("GenerateDisjoint produced intersecting instance (n=%d k=%d)", n, k)
		}
	}
}

func TestGenerateIntersectingIntersects(t *testing.T) {
	src := rng.New(302)
	for trial := 0; trial < 50; trial++ {
		n := src.Intn(200) + 1
		k := src.Intn(8) + 1
		inst, err := GenerateIntersecting(src, n, k, 1, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		dis, err := inst.Disjoint()
		if err != nil {
			t.Fatal(err)
		}
		if dis {
			t.Fatalf("GenerateIntersecting produced disjoint instance (n=%d k=%d)", n, k)
		}
		if _, ok, _ := bitvec.IntersectsAll(inst.Sets); !ok {
			t.Fatal("no witness for intersecting instance")
		}
	}
}

func TestGenerateFromMuNAlwaysDisjoint(t *testing.T) {
	src := rng.New(303)
	for trial := 0; trial < 30; trial++ {
		inst, err := GenerateFromMuN(src, 100, 5)
		if err != nil {
			t.Fatal(err)
		}
		dis, err := inst.Disjoint()
		if err != nil {
			t.Fatal(err)
		}
		if !dis {
			t.Fatal("μ^n instance intersects")
		}
	}
}

func TestGeneratorValidation(t *testing.T) {
	src := rng.New(304)
	if _, err := GenerateDisjoint(nil, 10, 2, 0.5); err == nil {
		t.Fatal("nil source succeeded")
	}
	if _, err := GenerateDisjoint(src, 0, 2, 0.5); err == nil {
		t.Fatal("n=0 succeeded")
	}
	if _, err := GenerateDisjoint(src, 10, 0, 0.5); err == nil {
		t.Fatal("k=0 succeeded")
	}
	if _, err := GenerateDisjoint(src, 10, 2, 1.5); err == nil {
		t.Fatal("density > 1 succeeded")
	}
	if _, err := GenerateIntersecting(src, 10, 2, 0, 0.5); err == nil {
		t.Fatal("common=0 succeeded")
	}
	if _, err := GenerateIntersecting(src, 10, 2, 11, 0.5); err == nil {
		t.Fatal("common > n succeeded")
	}
	if _, err := GenerateFromMuN(src, 10, 1); err == nil {
		t.Fatal("k=1 μ^n succeeded")
	}
}

func TestNaiveCorrectRandom(t *testing.T) {
	src := rng.New(305)
	for trial := 0; trial < 100; trial++ {
		n := src.Intn(120) + 1
		k := src.Intn(6) + 1
		var inst *Instance
		var err error
		if src.Uint64()&1 == 1 {
			inst, err = GenerateDisjoint(src, n, k, src.Float64())
		} else {
			inst, err = GenerateIntersecting(src, n, k, src.Intn(n)+1, src.Float64())
		}
		if err != nil {
			t.Fatal(err)
		}
		want, err := inst.Disjoint()
		if err != nil {
			t.Fatal(err)
		}
		out, err := SolveNaive(inst)
		if err != nil {
			t.Fatal(err)
		}
		if out.Disjoint != want {
			t.Fatalf("naive answered %v, truth %v (n=%d k=%d)", out.Disjoint, want, n, k)
		}
		if out.Messages != k {
			t.Fatalf("naive used %d messages, want %d", out.Messages, k)
		}
	}
	if _, err := SolveNaive(nil); err == nil {
		t.Fatal("nil instance succeeded")
	}
}

func TestOptimalCorrectRandom(t *testing.T) {
	src := rng.New(306)
	for trial := 0; trial < 150; trial++ {
		n := src.Intn(300) + 1
		k := src.Intn(9) + 1
		var inst *Instance
		var err error
		switch src.Intn(3) {
		case 0:
			inst, err = GenerateDisjoint(src, n, k, src.Float64())
		case 1:
			inst, err = GenerateIntersecting(src, n, k, src.Intn(n)+1, src.Float64())
		default:
			if k < 2 {
				k = 2
			}
			inst, err = GenerateFromMuN(src, n, k)
		}
		if err != nil {
			t.Fatal(err)
		}
		want, err := inst.Disjoint()
		if err != nil {
			t.Fatal(err)
		}
		out, err := SolveOptimal(inst)
		if err != nil {
			t.Fatalf("n=%d k=%d: %v", n, k, err)
		}
		if out.Disjoint != want {
			t.Fatalf("optimal answered %v, truth %v (n=%d k=%d)", out.Disjoint, want, n, k)
		}
	}
	if _, err := SolveOptimal(nil); err == nil {
		t.Fatal("nil instance succeeded")
	}
}

func TestOptimalCorrectEdgeCases(t *testing.T) {
	// All-empty sets: trivially disjoint; the board covers everything in
	// the first pass.
	empty := []*bitvec.Vector{newVec(t, 10), newVec(t, 10)}
	inst, _ := NewInstance(10, empty)
	out, err := SolveOptimal(inst)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Disjoint {
		t.Fatal("empty sets reported intersecting")
	}

	// All-full sets: everything intersects.
	full := []*bitvec.Vector{newVec(t, 10), newVec(t, 10)}
	full[0].SetAll()
	full[1].SetAll()
	inst, _ = NewInstance(10, full)
	out, err = SolveOptimal(inst)
	if err != nil {
		t.Fatal(err)
	}
	if out.Disjoint {
		t.Fatal("full sets reported disjoint")
	}

	// Single player with empty set: "disjoint" (empty intersection).
	one := []*bitvec.Vector{newVec(t, 5)}
	inst, _ = NewInstance(5, one)
	out, err = SolveOptimal(inst)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Disjoint {
		t.Fatal("single empty set reported intersecting")
	}

	// Single player with one element: intersecting.
	oneFull := []*bitvec.Vector{newVec(t, 5)}
	_ = oneFull[0].Set(3)
	inst, _ = NewInstance(5, oneFull)
	out, err = SolveOptimal(inst)
	if err != nil {
		t.Fatal(err)
	}
	if out.Disjoint {
		t.Fatal("non-empty single set reported disjoint")
	}

	// n = 1.
	tiny := []*bitvec.Vector{newVec(t, 1), newVec(t, 1)}
	_ = tiny[0].Set(0)
	inst, _ = NewInstance(1, tiny)
	out, err = SolveOptimal(inst)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Disjoint {
		t.Fatal("n=1 with one-sided element reported intersecting")
	}
}

func TestNaiveAndOptimalAgree(t *testing.T) {
	src := rng.New(307)
	for trial := 0; trial < 60; trial++ {
		n := src.Intn(150) + 1
		k := src.Intn(7) + 1
		inst, err := GenerateDisjoint(src, n, k, src.Float64())
		if err != nil {
			t.Fatal(err)
		}
		a, err := SolveNaive(inst)
		if err != nil {
			t.Fatal(err)
		}
		b, err := SolveOptimal(inst)
		if err != nil {
			t.Fatal(err)
		}
		if a.Disjoint != b.Disjoint {
			t.Fatalf("protocols disagree: naive %v, optimal %v", a.Disjoint, b.Disjoint)
		}
	}
}

func TestOptimalBeatsNaiveAtScale(t *testing.T) {
	// The Theorem 2 separation: for n >> k, n log k << n log n.
	src := rng.New(308)
	const n, k = 8192, 4
	inst, err := GenerateDisjoint(src, n, k, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := SolveNaive(inst)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := SolveOptimal(inst)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Bits >= naive.Bits {
		t.Fatalf("optimal %d bits not below naive %d bits", opt.Bits, naive.Bits)
	}
	// The optimal protocol must be within a constant factor of the
	// n·log2(k)+k model.
	model := OptimalCostModel(n, k)
	ratio := float64(opt.Bits) / model
	if ratio > 4 {
		t.Fatalf("optimal cost ratio %v to n·log k+k model too large (bits=%d model=%v)",
			ratio, opt.Bits, model)
	}
}

func TestOptimalCostScalesWithLogK(t *testing.T) {
	// Doubling k (with n fixed, n >> k²) should grow cost roughly like
	// log k, not like k: the ratio bits/(n log2 k + k) stays bounded.
	src := rng.New(309)
	const n = 4096
	for _, k := range []int{2, 4, 8, 16} {
		inst, err := GenerateDisjoint(src, n, k, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		out, err := SolveOptimal(inst)
		if err != nil {
			t.Fatal(err)
		}
		ratio := float64(out.Bits) / OptimalCostModel(n, k)
		if ratio > 4 {
			t.Fatalf("k=%d: ratio %v too large (bits=%d)", k, ratio, out.Bits)
		}
	}
}

func TestOptimalHandlesKLargerThanSqrtN(t *testing.T) {
	// k² > n sends the protocol straight to the endgame.
	src := rng.New(310)
	inst, err := GenerateDisjoint(src, 50, 16, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := inst.Disjoint()
	out, err := SolveOptimal(inst)
	if err != nil {
		t.Fatal(err)
	}
	if out.Disjoint != want {
		t.Fatalf("answered %v, truth %v", out.Disjoint, want)
	}
}

func TestCostModels(t *testing.T) {
	if OptimalCostModel(8, 1) != 8+1 {
		t.Fatalf("OptimalCostModel(8,1) = %v", OptimalCostModel(8, 1))
	}
	if OptimalCostModel(8, 4) != 8*2+4 {
		t.Fatalf("OptimalCostModel(8,4) = %v", OptimalCostModel(8, 4))
	}
}

func TestAblatedVariantsCorrect(t *testing.T) {
	src := rng.New(311)
	variants := []Options{
		{DisableBatching: true},
		{DisableEndgame: true},
		{DisableBatching: true, DisableEndgame: true},
	}
	for trial := 0; trial < 60; trial++ {
		n := src.Intn(200) + 1
		k := src.Intn(9) + 1
		var inst *Instance
		var err error
		if src.Uint64()&1 == 1 {
			inst, err = GenerateDisjoint(src, n, k, src.Float64())
		} else {
			inst, err = GenerateIntersecting(src, n, k, src.Intn(n)+1, src.Float64())
		}
		if err != nil {
			t.Fatal(err)
		}
		want, err := inst.Disjoint()
		if err != nil {
			t.Fatal(err)
		}
		for _, opts := range variants {
			out, err := SolveOptimalOpts(inst, opts)
			if err != nil {
				t.Fatalf("n=%d k=%d opts=%+v: %v", n, k, opts, err)
			}
			if out.Disjoint != want {
				t.Fatalf("n=%d k=%d opts=%+v: answered %v, truth %v", n, k, opts, out.Disjoint, want)
			}
		}
	}
}

func TestNoBatchingCostsMore(t *testing.T) {
	src := rng.New(312)
	inst, err := GenerateFromMuN(src, 4096, 4)
	if err != nil {
		t.Fatal(err)
	}
	full, err := SolveOptimal(inst)
	if err != nil {
		t.Fatal(err)
	}
	nb, err := SolveOptimalOpts(inst, Options{DisableBatching: true})
	if err != nil {
		t.Fatal(err)
	}
	if nb.Bits <= full.Bits {
		t.Fatalf("no-batching %d bits not above full %d bits", nb.Bits, full.Bits)
	}
}

// TestBreakdownSumsToTotal moved to breakdown_external_test.go (package
// disj_test) so it can use the shared disjtest helper package; an
// in-package test file cannot import disjtest without an import cycle.
// The GenerateFromMuNOrSmallK helper it used lives there now too.

func TestDecoderRejectsCorruptMessages(t *testing.T) {
	// Failure injection: a malformed blackboard write must produce an
	// error from the public-state decoder, never a panic or a silent
	// mis-decode.
	src := rng.New(314)
	inst, err := GenerateDisjoint(src, 64, 4, 0.5)
	if err != nil {
		t.Fatal(err)
	}

	mkBoard := func() (*optimalRun, *blackboard.Board) {
		t.Helper()
		run := newOptimalRun(inst, Options{})
		board, err := blackboard.NewBoard(inst.K, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Prime the run (starts the first cycle).
		if _, _, err := run.Next(board); err != nil {
			t.Fatal(err)
		}
		return run, board
	}

	// Case 1: phase-1 contribution with trailing garbage bits.
	run, board := mkBoard()
	var w encoding.BitWriter
	_ = w.WriteBit(0) // pass flag
	_ = w.WriteBit(1) // trailing garbage
	if err := board.Append(blackboard.NewMessage(0, &w)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := run.Next(board); err == nil {
		t.Fatal("trailing bits accepted")
	}

	// Case 2: truncated contribution (flag 1, no batch payload).
	run, board = mkBoard()
	var w2 encoding.BitWriter
	_ = w2.WriteBit(1)
	if err := board.Append(blackboard.NewMessage(0, &w2)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := run.Next(board); err == nil {
		t.Fatal("truncated batch accepted")
	}
}

func TestEndgameDecoderRejectsOutOfRangeCoordinate(t *testing.T) {
	// Small instance goes straight to the endgame; feed a coordinate index
	// beyond the live set.
	src := rng.New(315)
	inst, err := GenerateDisjoint(src, 5, 4, 0.5) // 5 < k² = 16 → endgame; FixedWidth(5)=3 leaves room for out-of-range values
	if err != nil {
		t.Fatal(err)
	}
	run := newOptimalRun(inst, Options{})
	board, err := blackboard.NewBoard(inst.K, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := run.Next(board); err != nil {
		t.Fatal(err)
	}
	if !run.endgame {
		t.Fatal("expected endgame phase")
	}
	var w encoding.BitWriter
	if err := encoding.WriteNonNeg(&w, 1); err != nil { // one coordinate
		t.Fatal(err)
	}
	width := encoding.FixedWidth(uint64(len(run.zCycle)))
	if err := w.WriteBits(uint64(len(run.zCycle)), width); err != nil {
		// The out-of-range value may not fit the width; force max value.
		t.Skipf("cannot encode out-of-range value in %d bits", width)
	}
	if err := board.Append(blackboard.NewMessage(0, &w)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := run.Next(board); err == nil {
		t.Fatal("out-of-range endgame coordinate accepted")
	}
}

func BenchmarkSolveOptimal(b *testing.B) {
	src := rng.New(999)
	inst, err := GenerateFromMuN(src, 16384, 8)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := SolveOptimal(inst); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveNaive(b *testing.B) {
	src := rng.New(998)
	inst, err := GenerateFromMuN(src, 16384, 8)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := SolveNaive(inst); err != nil {
			b.Fatal(err)
		}
	}
}

func TestSolveOptimalMessages(t *testing.T) {
	src := rng.New(316)
	inst, err := GenerateFromMuN(src, 256, 4)
	if err != nil {
		t.Fatal(err)
	}
	out, sizes, err := SolveOptimalMessages(inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sizes) != out.Messages {
		t.Fatalf("%d sizes for %d messages", len(sizes), out.Messages)
	}
	total := 0
	for _, s := range sizes {
		total += s
	}
	if total != out.Bits {
		t.Fatalf("sizes sum to %d, outcome reports %d bits", total, out.Bits)
	}
	if _, _, err := SolveOptimalMessages(nil, Options{}); err == nil {
		t.Fatal("nil instance succeeded")
	}
}

// TestGenerateFromMuNIntoMatchesFresh pins that instance reuse changes
// neither the sampled instance nor the randomness stream: a reused-buffer
// generation consumes exactly the draws a fresh one does and yields
// identical sets.
func TestGenerateFromMuNIntoMatchesFresh(t *testing.T) {
	const n, k, trials = 257, 7, 5
	fresh := rng.New(42)
	reused := rng.New(42)
	var inst *Instance
	for tr := 0; tr < trials; tr++ {
		want, err := GenerateFromMuN(fresh, n, k)
		if err != nil {
			t.Fatal(err)
		}
		inst, err = GenerateFromMuNInto(inst, reused, n, k)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Sets {
			if !inst.Sets[i].Equal(want.Sets[i]) {
				t.Fatalf("trial %d: reused set %d differs from fresh generation", tr, i)
			}
		}
	}
	if fresh.Uint64() != reused.Uint64() {
		t.Fatal("randomness streams diverged after generation")
	}
}

// TestGenerateFromMuNIntoRejectsBadShape: a shape mismatch falls back to a
// fresh allocation rather than corrupting the caller's instance.
func TestGenerateFromMuNIntoRejectsBadShape(t *testing.T) {
	src := rng.New(7)
	small, err := GenerateFromMuN(src, 16, 3)
	if err != nil {
		t.Fatal(err)
	}
	big, err := GenerateFromMuNInto(small, src, 64, 5)
	if err != nil {
		t.Fatal(err)
	}
	if big == small {
		t.Fatal("mismatched shape reused the old instance")
	}
	if big.N != 64 || big.K != 5 {
		t.Fatalf("fresh instance has shape n=%d k=%d", big.N, big.K)
	}
	if small.N != 16 || small.K != 3 || small.Sets[0].Len() != 16 {
		t.Fatal("original instance mutated by mismatched reuse")
	}
}

// SolveCoordinator runs the coordinator-model protocol on the sequential
// runtime and returns its outcome.
func SolveCoordinator(inst *Instance, opts CoordinatorOptions) (*Outcome, error) {
	cp, err := NewCoordinatorProtocol(inst, opts)
	if err != nil {
		return nil, err
	}
	res, err := blackboard.Run(cp.Scheduler(), cp.Players(), nil, cp.Limits())
	if err != nil {
		return nil, fmt.Errorf("disj: coordinator protocol: %w", err)
	}
	return cp.Outcome(res.Board)
}

// newVec returns an all-zero vector over [0, n).
func newVec(t *testing.T, n int) *bitvec.Vector {
	t.Helper()
	v, err := bitvec.New(n)
	if err != nil {
		t.Fatal(err)
	}
	return v
}
