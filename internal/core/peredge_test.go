package core

// White-box tests for the compiled per-edge scorer against the scalar
// shard loop. Fixtures are in-package (core tests cannot import andk/dist
// without a cycle): chainFixtureSpec is the generic AND_k chain — players
// speak in order announcing their input bit, up to a cap, optionally
// halting after the first 0 — with its sufficient state, so it compiles
// through core's own adapter to a merged, per-edge program, and shard
// equality checks that program against the full tree-walking engine.

import (
	"testing"

	"broadcastic/internal/ir"
	"broadcastic/internal/prob"
	"broadcastic/internal/rng"
)

type chainFixtureSpec struct {
	k, cap int
	halt   bool
	bits   [2]prob.Dist
}

func newChainFixtureSpec(t *testing.T, k, cap int, halt bool) *chainFixtureSpec {
	t.Helper()
	b0, err := prob.Point(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := prob.Point(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	return &chainFixtureSpec{k: k, cap: cap, halt: halt, bits: [2]prob.Dist{b0, b1}}
}

func (s *chainFixtureSpec) NumPlayers() int { return s.k }
func (s *chainFixtureSpec) InputSize() int  { return 2 }
func (s *chainFixtureSpec) NextSpeaker(t Transcript) (int, bool, error) {
	if s.halt && len(t) > 0 && t[len(t)-1] == 0 {
		return 0, true, nil
	}
	if len(t) >= s.cap {
		return 0, true, nil
	}
	return len(t), false, nil
}
func (s *chainFixtureSpec) MessageAlphabet(Transcript) (int, error) { return 2, nil }
func (s *chainFixtureSpec) MessageDist(_ Transcript, _, input int) (prob.Dist, error) {
	return s.bits[input], nil
}
func (s *chainFixtureSpec) MessageBits(Transcript, int) (int, error) { return 1, nil }
func (s *chainFixtureSpec) Output(t Transcript) (int, error) {
	for _, b := range t {
		if b == 0 {
			return 0, nil
		}
	}
	return 1, nil
}
func (s *chainFixtureSpec) StateKey(t []int) uint64 {
	for _, b := range t {
		if b == 0 {
			return 1
		}
	}
	return 0
}

// twoRowPrior is the Mu-shaped fixture: auxiliary value z marks one
// special player with a point mass on 0, everyone else shares a Bernoulli
// row whose mass sums to exactly 1 in floating point.
type twoRowPrior struct {
	k    int
	rows [2]prob.Dist
}

func newTwoRowPrior(t *testing.T, k int, pOne float64) *twoRowPrior {
	t.Helper()
	special, err := prob.Point(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	regular, err := prob.Bernoulli(pOne)
	if err != nil {
		t.Fatal(err)
	}
	return &twoRowPrior{k: k, rows: [2]prob.Dist{special, regular}}
}

func (p *twoRowPrior) NumPlayers() int     { return p.k }
func (p *twoRowPrior) InputSize() int      { return 2 }
func (p *twoRowPrior) AuxSize() int        { return p.k }
func (p *twoRowPrior) AuxProb(int) float64 { return 1 / float64(p.k) }
func (p *twoRowPrior) PlayerDist(z, player int) (prob.Dist, error) {
	if player == z {
		return p.rows[0], nil
	}
	return p.rows[1], nil
}

var _ Spec = (*chainFixtureSpec)(nil)
var _ ir.StateKeyer = (*chainFixtureSpec)(nil)
var _ Prior = (*twoRowPrior)(nil)

// TestPerEdgeShardMatchesScalarShard pins shard-level bit-identity: for
// every chain shape the merged per-edge program must reproduce the scalar
// shard's raw moments exactly — same stream, same count, same floats —
// including ragged shard sizes, and leave the stream where it does.
func TestPerEdgeShardMatchesScalarShard(t *testing.T) {
	cases := []struct {
		name   string
		k, cap int
		halt   bool
	}{
		{"sequential", 5, 5, true},
		{"broadcast-all", 8, 8, false},
		{"truncated", 12, 7, true},
		{"single-player", 1, 1, true},
		{"deep", 70, 70, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := newChainFixtureSpec(t, tc.k, tc.cap, tc.halt)
			prior := newTwoRowPrior(t, tc.k, 0.75)
			prog := ir.CompileEstimator(irMergeSpec{irSpec{spec}, spec}, prior)
			if prog == nil || !prog.PerEdge() || prog.NumStates() > 2*tc.cap {
				t.Fatalf("chain did not compile to a merged per-edge program: %v", prog)
			}
			for _, count := range []int{300, 97, 1} {
				want, err := cicShard(spec, prior, rng.New(41), count)
				if err != nil {
					t.Fatal(err)
				}
				var got cicPartial
				got.sum, got.sumSq, got.bitsSum = prog.Shard(rng.New(41), count)
				if got != want {
					t.Fatalf("count %d: per-edge shard %+v != scalar shard %+v", count, got, want)
				}
			}
			s1, s2 := rng.New(9), rng.New(9)
			if _, err := cicShard(spec, prior, s1, 50); err != nil {
				t.Fatal(err)
			}
			prog.Shard(s2, 50)
			if s1.Uint64() != s2.Uint64() {
				t.Fatal("per-edge shard left the RNG stream at a different position than the scalar shard")
			}
		})
	}
}

// TestLaneSampleLoopZeroAllocs extends the scalar alloc gate
// (TestCICSampleLoopZeroAllocs) to the compiled estimator core dispatches
// to: once the scratch pool is warm, the per-edge binary shard loop over a
// μ-shaped chain performs zero heap allocations per call.
func TestLaneSampleLoopZeroAllocs(t *testing.T) {
	const k = 16
	spec := newChainFixtureSpec(t, k, k, true)
	prior := newTwoRowPrior(t, k, 0.75)
	prog := ir.CompileEstimator(irMergeSpec{irSpec{spec}, spec}, prior)
	if prog == nil || !prog.PerEdge() {
		t.Fatalf("chain did not compile to a per-edge program: %v", prog)
	}
	src := rng.New(3)
	prog.Shard(src, 8) // warm the scratch pool
	var sink float64
	allocs := testing.AllocsPerRun(200, func() {
		sum, _, _ := prog.Shard(src, 4)
		sink += sum
	})
	if allocs != 0 {
		t.Fatalf("steady-state per-edge shard allocates %.1f objects/call; want 0", allocs)
	}
	_ = sink
}
