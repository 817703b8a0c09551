package ir

// White-box tests for per-edge scoring and state merging: eligibility,
// program shapes, and bit-identity of the per-edge sum against the
// per-leaf table it replaces and of merged programs against their trees.

import (
	"math"
	"testing"
	"testing/quick"

	"broadcastic/internal/prob"
	"broadcastic/internal/rng"
)

// chainSpec is the AND_k chain family: players speak in index order, each
// announcing its input bit, up to cap speakers, optionally halting right
// after the first 0 (Sequential: cap=k, halt; BroadcastAll: cap=k, no
// halt; Truncated: cap<k, halt).
type chainSpec struct {
	k, cap int
	halt   bool
}

func (s chainSpec) NumPlayers() int { return s.k }
func (s chainSpec) InputSize() int  { return 2 }
func (s chainSpec) NextSpeaker(t []int) (int, bool, error) {
	if s.halt && len(t) > 0 && t[len(t)-1] == 0 {
		return 0, true, nil
	}
	if len(t) >= s.cap {
		return 0, true, nil
	}
	return len(t), false, nil
}
func (s chainSpec) MessageAlphabet([]int) (int, error) { return 2, nil }
func (s chainSpec) MessageDist(_ []int, _, input int) (prob.Dist, error) {
	return prob.Point(2, input)
}
func (s chainSpec) MessageBits([]int, int) (int, error) { return 1, nil }
func (s chainSpec) Output(t []int) (int, error) {
	for _, b := range t {
		if b == 0 {
			return 0, nil
		}
	}
	return 1, nil
}

// keyedChain adds the chain's sufficient state: whether a 0 was written.
type keyedChain struct{ chainSpec }

func (keyedChain) StateKey(t []int) uint64 {
	for _, b := range t {
		if b == 0 {
			return 1
		}
	}
	return 0
}

// muPrior is μ's shape: z names a special player whose input is 0; every
// other player's input is 1 with probability 1 − 1/k.
type muPrior struct{ k int }

func (p muPrior) NumPlayers() int     { return p.k }
func (p muPrior) InputSize() int      { return 2 }
func (p muPrior) AuxSize() int        { return p.k }
func (p muPrior) AuxProb(int) float64 { return 1 / float64(p.k) }
func (p muPrior) PlayerDist(z, player int) (prob.Dist, error) {
	if player == z {
		return prob.Point(2, 0)
	}
	return prob.Bernoulli(1 - 1/float64(p.k))
}

// monoSpec is a randomized protocol in which player t speaks at depth t:
// monotone, so eligible for per-edge scoring whenever the prior is.
type monoSpec struct{ testSpec }

func (s monoSpec) NextSpeaker(t []int) (int, bool, error) {
	if len(t) >= s.rounds {
		return 0, true, nil
	}
	return len(t), false, nil
}

// transcriptKey is a StateKey that merges nothing: distinct prefixes get
// distinct keys (inputs here are tiny), which is trivially sound.
type transcriptKey struct{}

func (transcriptKey) StateKey(t []int) uint64 {
	h := uint64(1)
	for _, s := range t {
		h = h*8 + uint64(s)
	}
	return h
}

type keyedMono struct {
	monoSpec
	transcriptKey
}

type keyedTest struct {
	testSpec
	transcriptKey
}

// weightPrior draws each player's conditional from integer weights; when
// the weights sum to a power of two every row sums to exactly 1.0.
type weightPrior struct {
	k, inputSize, auxSize int
	weights               func(z, player, v int) float64
}

func (p weightPrior) NumPlayers() int       { return p.k }
func (p weightPrior) InputSize() int        { return p.inputSize }
func (p weightPrior) AuxSize() int          { return p.auxSize }
func (p weightPrior) AuxProb(z int) float64 { return float64(1 + z) }
func (p weightPrior) PlayerDist(z, player int) (prob.Dist, error) {
	w := make([]float64, p.inputSize)
	for v := range w {
		w[v] = p.weights(z, player, v)
	}
	return prob.Normalize(w)
}

// exactPrior has four inputs and rows weighted {1+a, 3−a, 5, 7}: sum 16.
func exactPrior(k int) weightPrior {
	return weightPrior{k: k, inputSize: 4, auxSize: 3, weights: func(z, player, v int) float64 {
		a := float64((z + player) % 3)
		return []float64{1 + a, 3 - a, 5, 7}[v]
	}}
}

// uniform7Prior's rows are seven sevenths, which sum to just below 1.0 in
// floating point: a silent player then scores a tiny positive term.
func uniform7Prior(k int) weightPrior {
	return weightPrior{k: k, inputSize: 7, auxSize: 2, weights: func(int, int, int) float64 { return 1 }}
}

func TestPerEdgeEligibility(t *testing.T) {
	mono := monoSpec{testSpec{k: 3, inputSize: 4, rounds: 3, bias: 0.3}}
	rep := testSpec{k: 3, inputSize: 4, rounds: 5, bias: 0.3}
	mono7 := monoSpec{testSpec{k: 3, inputSize: 7, rounds: 3, bias: 0.3}}
	sevenths, _ := uniform7Prior(3).PlayerDist(0, 0)
	if silentRowsScoreZero([][]float64{sevenths.Probs()}, 7) {
		t.Fatal("fixture broken: seven sevenths score a silent player +0.0")
	}
	for _, tc := range []struct {
		name    string
		spec    Spec
		prior   Prior
		perEdge bool
	}{
		{"monotone, exact rows", mono, exactPrior(3), true},
		{"repeat speaker", rep, exactPrior(3), false},
		{"inexact rows", mono7, uniform7Prior(3), false},
		// A keyed spec whose merged program cannot score per edge compiles
		// again as a plain tree, for either reason.
		{"keyed, inexact rows", keyedMono{mono7, transcriptKey{}}, uniform7Prior(3), false},
		{"keyed, repeat speaker", keyedTest{rep, transcriptKey{}}, exactPrior(3), false},
	} {
		p := CompileEstimator(tc.spec, tc.prior)
		if p == nil {
			t.Fatalf("%s: compiled to nil", tc.name)
		}
		if p.PerEdge() != tc.perEdge || (p.inner != nil) == tc.perEdge {
			t.Fatalf("%s: per-edge %v, inner table %v; want per-edge %v on the tree",
				tc.name, p.PerEdge(), p.inner != nil, tc.perEdge)
		}
	}
}

// TestMergedChainShapes pins the merged program shapes of the AND_k chain
// family under μ: Sequential has k states, BroadcastAll at most 2k and
// Truncated m, at any k — and no table scales as aux × leaves.
func TestMergedChainShapes(t *testing.T) {
	for _, k := range []int{1, 2, 3, 17, 64, 1024, 2048} {
		m := (k + 1) / 2
		for _, tc := range []struct {
			name           string
			spec           chainSpec
			states, leaves int
		}{
			{"sequential", chainSpec{k, k, true}, k, k + 1},
			{"broadcast-all", chainSpec{k, k, false}, 2*k - 1, 2},
			{"truncated", chainSpec{k, m, true}, m, m + 1},
		} {
			p := CompileEstimator(keyedChain{tc.spec}, muPrior{k})
			if p == nil {
				t.Fatalf("k=%d %s: compiled to nil", k, tc.name)
			}
			if p.NumStates() != tc.states || p.numLeaves != tc.leaves {
				t.Fatalf("k=%d %s: %d states, %d leaves; want %d, %d",
					k, tc.name, p.NumStates(), p.numLeaves, tc.states, tc.leaves)
			}
			if !p.PerEdge() || p.inner != nil {
				t.Fatalf("k=%d %s: merged program keeps per-leaf tables", k, tc.name)
			}
			if len(p.edgeTerm) != len(p.rows)*p.numEdges || len(p.rows) > 2 {
				t.Fatalf("k=%d %s: %d edge terms for %d rows × %d edges",
					k, tc.name, len(p.edgeTerm), len(p.rows), p.numEdges)
			}
		}
	}
}

// perLeafTwin compiles spec again and replaces its per-edge scoring with
// the per-leaf inner table, built by the unchanged per-leaf code path from
// the compiler's leaf q-factors.
func perLeafTwin(t *testing.T, spec Spec, prior Prior) *Program {
	t.Helper()
	c := newCompiler(spec)
	p := c.compileEstimator(prior)
	if p == nil || !p.PerEdge() {
		t.Fatal("fixture must score per edge")
	}
	priors := make([][]float64, len(p.rows))
	for r, id := range p.rows {
		priors[r] = p.pool[id].dist.Probs()
	}
	p.edgeTerm, p.numEdges = nil, 0
	if !p.buildInner(priors, len(p.rowOf)/p.k, c.leafQ) {
		t.Fatal("per-leaf table refused")
	}
	return p
}

// TestPerEdgeMatchesPerLeaf pins the per-edge identity: on eligible
// programs the path-order sum of per-edge terms is bit-identical to the
// per-leaf divergence table, and merged programs to their trees — same
// moments, same stream position, at ragged sample counts.
func TestPerEdgeMatchesPerLeaf(t *testing.T) {
	cases := []struct {
		name         string
		tree, merged Spec
		prior        Prior
	}{
		{"sequential", chainSpec{9, 9, true}, keyedChain{chainSpec{9, 9, true}}, muPrior{9}},
		{"broadcast-all", chainSpec{9, 9, false}, keyedChain{chainSpec{9, 9, false}}, muPrior{9}},
		{"truncated", chainSpec{9, 5, true}, keyedChain{chainSpec{9, 5, true}}, muPrior{9}},
		{"randomized", monoSpec{testSpec{k: 4, inputSize: 4, rounds: 4, bias: 0.3}},
			keyedMono{monoSpec{testSpec{k: 4, inputSize: 4, rounds: 4, bias: 0.3}}, transcriptKey{}},
			exactPrior(4)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			perEdge := CompileEstimator(tc.tree, tc.prior)
			merged := CompileEstimator(tc.merged, tc.prior)
			perLeaf := perLeafTwin(t, tc.tree, tc.prior)
			if merged == nil || !merged.PerEdge() {
				t.Fatal("keyed fixture must compile merged and per edge")
			}
			for _, count := range []int{300, 97, 1} {
				s1, s2, s3 := rng.New(41), rng.New(41), rng.New(41)
				a1, b1, c1 := perLeaf.Shard(s1, count)
				a2, b2, c2 := perEdge.Shard(s2, count)
				a3, b3, c3 := merged.Shard(s3, count)
				if a1 != a2 || b1 != b2 || c1 != c2 || a1 != a3 || b1 != b3 || c1 != c3 {
					t.Fatalf("count %d: per-leaf (%v,%v,%v), per-edge (%v,%v,%v), merged (%v,%v,%v)",
						count, a1, b1, c1, a2, b2, c2, a3, b3, c3)
				}
				if x, y, z := s1.Uint64(), s2.Uint64(), s3.Uint64(); x != y || x != z {
					t.Fatalf("count %d: shards left the stream at different positions", count)
				}
			}
		})
	}
}

// TestTwoPointMatchesDistSampling pins the binary loop's threshold rows:
// for every two-outcome row, newTwoPoint's scan picks the outcome
// prob.Dist picks for the same uniform, boundaries included, and a point
// mass is flagged deterministic.
func TestTwoPointMatchesDistSampling(t *testing.T) {
	var rows []prob.Dist
	for _, p := range []float64{0, 0.5, 0.75, 1 - 1.0/3, 1 - 1.0/64, 1} {
		d, err := prob.Bernoulli(p)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, d)
	}
	for _, x := range []int{0, 1} {
		d, err := prob.Point(2, x)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, d)
	}
	src := rng.New(2024)
	for ri, row := range rows {
		c := &compiler{poolIdx: make(map[string]int32)}
		tp := newTwoPoint(&c.pool[c.intern(row)])
		if point := row.P(0) == 1 || row.P(1) == 1; point != (tp.det >= 0) {
			t.Fatalf("row %d: det %d for point mass %v", ri, tp.det, point)
		}
		us := []float64{0, row.P(0), math.Nextafter(row.P(0), 0), math.Nextafter(1, 0)}
		for i := 0; i < 200; i++ {
			us = append(us, src.Float64())
		}
		for _, u := range us {
			if u < 0 || u >= 1 {
				continue
			}
			if got, want := tp.sample(u), row.SampleU(u); int(got) != want {
				t.Fatalf("row %d u=%v: threshold scan %d != Dist %d", ri, u, got, want)
			}
		}
	}
}

// TestTwoPointNeverFallsBack is the property form: on random Bernoulli
// rows and uniforms, the threshold scan never disagrees with prob.Dist.
func TestTwoPointNeverFallsBack(t *testing.T) {
	prop := func(seed uint64, pRaw uint16) bool {
		row, err := prob.Bernoulli(float64(pRaw%1001) / 1000)
		if err != nil {
			return false
		}
		c := &compiler{poolIdx: make(map[string]int32)}
		tp := newTwoPoint(&c.pool[c.intern(row)])
		src := rng.New(seed)
		for i := 0; i < 100; i++ {
			if u := src.Float64(); int(tp.sample(u)) != row.SampleU(u) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}
