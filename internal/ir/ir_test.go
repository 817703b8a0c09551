package ir

import (
	"fmt"
	"math"
	"testing"

	"broadcastic/internal/prob"
	"broadcastic/internal/rng"
	"broadcastic/internal/telemetry"
	"broadcastic/internal/telemetry/causal"
)

// testSpec is a synthetic protocol: rounds messages, speaker t%k, binary
// alphabet, with the speaker's message distribution a function of the
// round, the input, and the bias parameter. bias=0 makes every message a
// point mass on the input bit (fully deterministic); bias>0 mixes.
type testSpec struct {
	k, inputSize, rounds int
	bias                 float64
}

func (s testSpec) NumPlayers() int { return s.k }
func (s testSpec) InputSize() int  { return s.inputSize }

func (s testSpec) NextSpeaker(t []int) (int, bool, error) {
	if len(t) >= s.rounds {
		return 0, true, nil
	}
	return len(t) % s.k, false, nil
}

func (s testSpec) MessageAlphabet(t []int) (int, error) { return 2, nil }

func (s testSpec) MessageDist(t []int, player, input int) (prob.Dist, error) {
	bit := input & 1
	if s.bias == 0 {
		return prob.Point(2, bit)
	}
	p := s.bias * (1 + float64(len(t)%3)) / 4
	if bit == 1 {
		p = 1 - p
	}
	return prob.NewDist([]float64{1 - p, p})
}

func (s testSpec) MessageBits(t []int, symbol int) (int, error) { return 1, nil }

func (s testSpec) Output(t []int) (int, error) {
	out := 0
	for _, b := range t {
		out ^= b
	}
	return out, nil
}

// testPrior is independent across players given z, with per-(z, player)
// two-point conditionals.
type testPrior struct {
	k, inputSize, auxSize int
}

func (p testPrior) NumPlayers() int { return p.k }
func (p testPrior) InputSize() int  { return p.inputSize }
func (p testPrior) AuxSize() int    { return p.auxSize }
func (p testPrior) AuxProb(z int) float64 {
	return float64(z+1) / float64(p.auxSize*(p.auxSize+1)/2)
}

func (p testPrior) PlayerDist(z, player int) (prob.Dist, error) {
	w := make([]float64, p.inputSize)
	for v := range w {
		w[v] = 1 + float64((z+player+v)%3)
	}
	return prob.Normalize(w)
}

func TestSampleCumMatchesSampleU(t *testing.T) {
	src := rng.New(41)
	sizes := []int{1, 2, 3, 5, 17, 127, 128, 129, 300}
	for _, n := range sizes {
		for trial := 0; trial < 4; trial++ {
			w := make([]float64, n)
			switch trial {
			case 0: // random positive
				for i := range w {
					w[i] = src.Float64() + 1e-3
				}
			case 1: // sparse: many exact zeros
				for i := range w {
					if src.Uint64()&1 == 1 {
						w[i] = src.Float64() + 1e-3
					}
				}
				w[src.Intn(n)] = 1 // ensure some mass
			case 2: // point mass
				w[src.Intn(n)] = 1
			case 3: // mass early, zero tail
				w[0] = 1
				if n > 1 {
					w[1] = 0.5
				}
			}
			d, err := prob.Normalize(w)
			if err != nil {
				t.Fatalf("Normalize(size %d trial %d): %v", n, trial, err)
			}
			c := &compiler{poolIdx: make(map[string]int32)}
			id := c.intern(d)
			pd := c.pool[id]

			check := func(u float64) {
				got := int(sampleCum(pd.cum, pd.last, u))
				want := d.SampleU(u)
				if got != want {
					t.Fatalf("size %d trial %d u=%v: sampleCum=%d SampleU=%d", n, trial, u, got, want)
				}
			}
			for i := 0; i <= 1000; i++ {
				check(float64(i) / 1001)
			}
			// Boundary stress: exact prefix sums and their neighbors.
			for _, cum := range pd.cum {
				if cum >= 1 {
					cum = math.Nextafter(1, 0)
				}
				check(cum)
				check(math.Nextafter(cum, 0))
				if nxt := math.Nextafter(cum, 1); nxt < 1 {
					check(nxt)
				}
			}
			check(0)
			check(math.Nextafter(1, 0))
			for i := 0; i < 200; i++ {
				check(src.Float64())
			}
		}
	}
}

// leafPaths walks the compiled edges from the root and returns each
// reachable leaf's transcript and its summed per-edge bit charge.
func leafPaths(p *Program) (syms map[int][]int, bits map[int]int) {
	syms, bits = map[int][]int{}, map[int]int{}
	var walk func(node int32, t []int, b int)
	walk = func(node int32, t []int, b int) {
		if node < 0 {
			leaf := int(-node - 1)
			syms[leaf] = append([]int(nil), t...)
			bits[leaf] = b
			return
		}
		base := int(p.transBase[node])
		for sym := 0; sym < int(p.alphabet[node]); sym++ {
			if next := p.edges[base+sym]; next != nodeNone {
				walk(next, append(t, sym), b+int(p.symBits[base+sym]))
			}
		}
	}
	walk(p.root, nil, 0)
	return syms, bits
}

// leafOf follows transcript t along the compiled edges and returns the
// leaf it ends on, or -1 when t leaves the compiled tree.
func leafOf(p *Program, t []int) int {
	node := p.root
	for _, sym := range t {
		if node < 0 {
			return -1
		}
		if node = p.edges[int(p.transBase[node])+sym]; node == nodeNone {
			return -1
		}
	}
	if node >= 0 {
		return -1
	}
	return int(-node - 1)
}

func TestCompileSmallDeterministicSpec(t *testing.T) {
	spec := testSpec{k: 2, inputSize: 2, rounds: 2, bias: 0}
	p := CompileEstimator(spec, testPrior{k: 2, inputSize: 2, auxSize: 2})
	if p == nil {
		t.Fatal("CompileEstimator returned nil for an eligible spec")
	}
	if p.k != 2 || p.inputSize != 2 {
		t.Fatalf("shape: k=%d inputSize=%d", p.k, p.inputSize)
	}
	if p.NumStates() != 3 {
		t.Fatalf("NumStates=%d, want 3 (root + two depth-1 states)", p.NumStates())
	}
	if p.numLeaves != 4 {
		t.Fatalf("numLeaves=%d, want 4", p.numLeaves)
	}
	syms, bits := leafPaths(p)
	seen := map[string]bool{}
	for l, ts := range syms {
		if len(ts) != 2 || bits[l] != 2 {
			t.Fatalf("leaf %d: transcript %v bits %d", l, ts, bits[l])
		}
		seen[fmt.Sprint(ts)] = true
	}
	if len(seen) != 4 || len(syms) != 4 {
		t.Fatalf("leaves not distinct: %v", seen)
	}
}

func TestCompileRandomizedFlags(t *testing.T) {
	p := CompileEstimator(testSpec{k: 3, inputSize: 2, rounds: 4, bias: 0.3}, testPrior{k: 3, inputSize: 2, auxSize: 2})
	if p == nil {
		t.Fatal("CompileEstimator returned nil")
	}
	for v := 0; v < p.inputSize; v++ {
		if f := p.fused[int(p.root)*p.inputSize+v]; f.next != nodeNone {
			t.Fatalf("randomized root message for input %d fused as deterministic", v)
		}
	}
	if _, bits := leafPaths(p); len(bits) != 16 {
		t.Fatalf("%d reachable leaves, want 16", len(bits))
	} else {
		for l, b := range bits {
			if b != 4 {
				t.Fatalf("leaf %d charged %d bits, want 4 one-bit messages", l, b)
			}
		}
	}
	if p.numLeaves != 16 {
		t.Fatalf("numLeaves=%d, want 16", p.numLeaves)
	}
}

// neverDone drives the walk past the depth gate.
type neverDone struct{ testSpec }

func (neverDone) NextSpeaker(t []int) (int, bool, error) { return 0, false, nil }

// errDist fails during the walk.
type errDist struct{ testSpec }

func (errDist) MessageDist(t []int, player, input int) (prob.Dist, error) {
	return prob.Dist{}, fmt.Errorf("boom")
}

func TestCompileGates(t *testing.T) {
	base := testSpec{k: 2, inputSize: 2, rounds: 2, bias: 0}
	prior := testPrior{k: 2, inputSize: 2, auxSize: 2}
	if p := CompileEstimator(neverDone{base}, prior); p != nil {
		t.Fatal("unbounded-depth spec must compile to nil")
	}
	if p := CompileEstimator(errDist{base}, prior); p != nil {
		t.Fatal("erroring spec must compile to nil")
	}
	if p := CompileEstimator(testSpec{k: 0, inputSize: 2, rounds: 1}, testPrior{k: 0, inputSize: 2, auxSize: 2}); p != nil {
		t.Fatal("zero players must compile to nil")
	}
	if p := CompileEstimator(testSpec{k: 2, inputSize: maxInputSize + 1, rounds: 1},
		testPrior{k: 2, inputSize: maxInputSize + 1, auxSize: 2}); p != nil {
		t.Fatal("oversized input domain must compile to nil")
	}
	// Shape mismatch between spec and prior.
	if p := CompileEstimator(base, testPrior{k: 3, inputSize: 2, auxSize: 2}); p != nil {
		t.Fatal("player-count mismatch must compile to nil")
	}
	if p := CompileEstimator(base, testPrior{k: 2, inputSize: 3, auxSize: 2}); p != nil {
		t.Fatal("input-size mismatch must compile to nil")
	}
}

// referenceSample replays one estimator sample through the public prob
// API with the dynamic path's draw discipline: one uniform for z, one per
// player input in player order, one per message (even point masses).
func referenceSample(t *testing.T, spec Spec, prior Prior, p *Program, src *rng.Source) (z, leaf, bits int) {
	t.Helper()
	w := make([]float64, prior.AuxSize())
	for i := range w {
		w[i] = prior.AuxProb(i)
	}
	zd, err := prob.Normalize(w)
	if err != nil {
		t.Fatal(err)
	}
	z = zd.Sample(src)
	x := make([]int, p.k)
	for i := 0; i < p.k; i++ {
		d, err := prior.PlayerDist(z, i)
		if err != nil {
			t.Fatal(err)
		}
		x[i] = d.Sample(src)
	}
	var tr []int
	for {
		speaker, done, err := spec.NextSpeaker(tr)
		if err != nil {
			t.Fatalf("NextSpeaker: %v", err)
		}
		if done {
			break
		}
		d, err := spec.MessageDist(tr, speaker, x[speaker])
		if err != nil {
			t.Fatalf("MessageDist: %v", err)
		}
		sym := d.Sample(src)
		sb, err := spec.MessageBits(tr, sym)
		if err != nil {
			t.Fatalf("MessageBits: %v", err)
		}
		bits += sb
		tr = append(tr, sym)
	}
	// Locate the leaf by walking the compiled edges with the transcript.
	if leaf = leafOf(p, tr); leaf < 0 {
		t.Fatalf("transcript %v not among compiled leaves", tr)
	}
	return z, leaf, bits
}

func TestShardMatchesReference(t *testing.T) {
	for _, bias := range []float64{0, 0.3} {
		spec := testSpec{k: 3, inputSize: 4, rounds: 5, bias: bias}
		prior := testPrior{k: 3, inputSize: 4, auxSize: 3}
		p := CompileEstimator(spec, prior)
		if p == nil {
			t.Fatalf("CompileEstimator(bias=%v) returned nil", bias)
		}
		const n = 500
		ref := rng.New(7)
		cmp := rng.New(7)
		mark := ref.Mark()
		var wantSum, wantSumSq, wantBits float64
		if p.PerEdge() {
			t.Fatalf("bias=%v: a player speaks twice, yet the program scores per edge", bias)
		}
		for s := 0; s < n; s++ {
			z, leaf, leafBits := referenceSample(t, spec, prior, p, ref)
			in := p.inner[z*p.numLeaves+leaf]
			wantSum += in
			wantSumSq += in * in
			wantBits += float64(leafBits)
		}
		sum, sumSq, bits := p.Shard(cmp, n)
		if sum != wantSum || sumSq != wantSumSq || bits != wantBits {
			t.Fatalf("bias=%v: Shard=(%v,%v,%v), reference=(%v,%v,%v)",
				bias, sum, sumSq, bits, wantSum, wantSumSq, wantBits)
		}
		if rd, cd := ref.DrawsSince(mark), cmp.DrawsSince(mark); rd != cd {
			t.Fatalf("bias=%v: draw streams diverged: reference %d, compiled %d", bias, rd, cd)
		}
	}
}

// TestShardZeroAllocs pins the steady-state shard loop allocation-free on
// every scoring path: per leaf, and per edge on the general and the
// binary loop, merged or not.
func TestShardZeroAllocs(t *testing.T) {
	for name, p := range map[string]*Program{
		"per-leaf":        CompileEstimator(testSpec{k: 3, inputSize: 4, rounds: 5, bias: 0.3}, testPrior{k: 3, inputSize: 4, auxSize: 3}),
		"per-edge":        CompileEstimator(monoSpec{testSpec{k: 3, inputSize: 4, rounds: 3, bias: 0.3}}, exactPrior(3)),
		"per-edge binary": CompileEstimator(keyedChain{chainSpec{16, 16, true}}, muPrior{16}),
	} {
		if p == nil || p.PerEdge() != (name != "per-leaf") {
			t.Fatalf("%s: fixture compiled to %v", name, p)
		}
		src := rng.New(3)
		p.Shard(src, 16) // warm the scratch pool
		allocs := testing.AllocsPerRun(100, func() {
			p.Shard(src, 64)
		})
		if allocs != 0 {
			t.Fatalf("%s: Shard allocates %v per run, want 0", name, allocs)
		}
	}
}

// TestEstimatorRows pins the compact conditional index: every
// (z, player) cell names a distinct row whose probabilities are exactly
// the prior's PlayerDist(z, player).
func TestEstimatorRows(t *testing.T) {
	spec := testSpec{k: 3, inputSize: 4, rounds: 3, bias: 0.3}
	prior := testPrior{k: 3, inputSize: 4, auxSize: 3}
	p := CompileEstimator(spec, prior)
	if p == nil {
		t.Fatal("CompileEstimator returned nil")
	}
	if len(p.rowOf) != 9 || len(p.rows) != 3 {
		t.Fatalf("rowOf len %d, %d distinct rows; want 9 and 3", len(p.rowOf), len(p.rows))
	}
	for z := 0; z < 3; z++ {
		for i := 0; i < 3; i++ {
			want, _ := prior.PlayerDist(z, i)
			got := p.pool[p.rows[p.rowOf[z*3+i]]].dist
			for v := 0; v < 4; v++ {
				if got.P(v) != want.P(v) {
					t.Fatalf("row (z=%d, i=%d): P(%d)=%v, want %v", z, i, v, got.P(v), want.P(v))
				}
			}
		}
	}
}

// keyedSpec attaches an IRKey to a testSpec for cache tests.
type keyedSpec struct {
	testSpec
	key string
}

func (s keyedSpec) IRKey() string { return s.key }

func TestProgramCacheTelemetry(t *testing.T) {
	ResetProgramCache()
	defer ResetProgramCache()
	col := telemetry.NewCollector()
	spec := keyedSpec{testSpec{k: 2, inputSize: 2, rounds: 2, bias: 0.3}, "test/cached"}
	prior := testPrior{k: 2, inputSize: 2, auxSize: 2}

	p1 := EstimatorProgram(spec, prior, spec.IRKey(), "test/prior", col, causal.Context{})
	if p1 == nil {
		t.Fatal("first EstimatorProgram compile failed")
	}
	p2 := EstimatorProgram(spec, prior, spec.IRKey(), "test/prior", col, causal.Context{})
	if p2 != p1 {
		t.Fatal("second lookup did not return the cached program")
	}
	if h, m := col.Counter(telemetry.IRProgramHits), col.Counter(telemetry.IRProgramMisses); h != 1 || m != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", h, m)
	}

	// Ineligible specs are negatively cached: nil both times, second a hit.
	bad := keyedSpec{testSpec{}, "test/bad"}
	bad.inputSize = maxInputSize + 1
	bad.k = 2
	badPrior := testPrior{k: 2, inputSize: maxInputSize + 1, auxSize: 2}
	if p := EstimatorProgram(bad, badPrior, bad.IRKey(), "test/prior", col, causal.Context{}); p != nil {
		t.Fatal("ineligible spec compiled")
	}
	if p := EstimatorProgram(bad, badPrior, bad.IRKey(), "test/prior", col, causal.Context{}); p != nil {
		t.Fatal("ineligible spec compiled on second lookup")
	}
	if h := col.Counter(telemetry.IRProgramHits); h != 2 {
		t.Fatalf("hits=%d after negative-cache lookup, want 2", h)
	}
}
