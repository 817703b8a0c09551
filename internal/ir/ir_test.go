package ir

import (
	"fmt"
	"math"
	"testing"

	"broadcastic/internal/prob"
	"broadcastic/internal/rng"
	"broadcastic/internal/telemetry"
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
					if src.Bool() {
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
				// The cached path must agree too, regardless of size.
				if cw := d.Cached().SampleU(u); cw != want {
					t.Fatalf("size %d trial %d u=%v: cached=%d linear=%d", n, trial, u, cw, want)
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

func TestCompileSmallDeterministicSpec(t *testing.T) {
	spec := testSpec{k: 2, inputSize: 2, rounds: 2, bias: 0}
	p := CompileSpec(spec)
	if p == nil {
		t.Fatal("CompileSpec returned nil for an eligible spec")
	}
	if p.NumPlayers() != 2 || p.InputSize() != 2 {
		t.Fatalf("shape: k=%d inputSize=%d", p.NumPlayers(), p.InputSize())
	}
	if p.NumStates() != 3 {
		t.Fatalf("NumStates=%d, want 3 (root + two depth-1 states)", p.NumStates())
	}
	if p.NumLeaves() != 4 {
		t.Fatalf("NumLeaves=%d, want 4", p.NumLeaves())
	}
	if !p.Deterministic() || !p.FixedWidth() {
		t.Fatalf("flags: det=%v fixedWidth=%v, want both true", p.Deterministic(), p.FixedWidth())
	}
	syms, bits, outs := p.Leaves()
	seen := map[string]bool{}
	for l, ts := range syms {
		if len(ts) != 2 || bits[l] != 2 {
			t.Fatalf("leaf %d: transcript %v bits %d", l, ts, bits[l])
		}
		if want := ts[0] ^ ts[1]; outs[l] != want {
			t.Fatalf("leaf %d: output %d, want parity %d", l, outs[l], want)
		}
		seen[fmt.Sprint(ts)] = true
	}
	if len(seen) != 4 {
		t.Fatalf("leaves not distinct: %v", seen)
	}
}

func TestCompileRandomizedFlags(t *testing.T) {
	p := CompileSpec(testSpec{k: 3, inputSize: 2, rounds: 4, bias: 0.3})
	if p == nil {
		t.Fatal("CompileSpec returned nil")
	}
	if p.Deterministic() {
		t.Fatal("randomized spec compiled as deterministic")
	}
	if !p.FixedWidth() {
		t.Fatal("binary alphabet with 1-bit charges must be fixed-width")
	}
	if p.NumLeaves() != 16 {
		t.Fatalf("NumLeaves=%d, want 16", p.NumLeaves())
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
	if p := CompileSpec(neverDone{base}); p != nil {
		t.Fatal("unbounded-depth spec must compile to nil")
	}
	if p := CompileSpec(errDist{base}); p != nil {
		t.Fatal("erroring spec must compile to nil")
	}
	if p := CompileSpec(testSpec{k: 0, inputSize: 2, rounds: 1}); p != nil {
		t.Fatal("zero players must compile to nil")
	}
	if p := CompileSpec(testSpec{k: 2, inputSize: maxInputSize + 1, rounds: 1}); p != nil {
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
func referenceSample(t *testing.T, spec Spec, prior Prior, p *Program, src *rng.Source) (z, leaf int, msgs uint64) {
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
		tr = append(tr, d.Sample(src))
		msgs++
	}
	// Locate the leaf by matching the transcript.
	syms, _, _ := p.Leaves()
	leaf = -1
	for l, ts := range syms {
		if len(ts) != len(tr) {
			continue
		}
		match := true
		for i := range ts {
			if ts[i] != tr[i] {
				match = false
				break
			}
		}
		if match {
			leaf = l
			break
		}
	}
	if leaf < 0 {
		t.Fatalf("transcript %v not among compiled leaves", tr)
	}
	return z, leaf, msgs
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
			z, leaf, _ := referenceSample(t, spec, prior, p, ref)
			in := p.inner[z*p.numLeaves+leaf]
			wantSum += in
			wantSumSq += in * in
			wantBits += float64(p.leafBits[leaf])
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

func TestSampleWalkMatchesReference(t *testing.T) {
	spec := testSpec{k: 3, inputSize: 4, rounds: 5, bias: 0.3}
	p := CompileSpec(spec)
	if p == nil {
		t.Fatal("CompileSpec returned nil")
	}
	ref := rng.New(11)
	cmp := rng.New(11)
	mark := ref.Mark()
	src := rng.New(99)
	for trial := 0; trial < 50; trial++ {
		x := []int{src.Intn(4), src.Intn(4), src.Intn(4)}
		// Reference walk: one draw per message through the spec's dists.
		var wantT []int
		wantBits := 0
		for {
			speaker, done, err := spec.NextSpeaker(wantT)
			if err != nil {
				t.Fatal(err)
			}
			if done {
				break
			}
			d, err := spec.MessageDist(wantT, speaker, x[speaker])
			if err != nil {
				t.Fatal(err)
			}
			sym := d.Sample(ref)
			sb, _ := spec.MessageBits(wantT, sym)
			wantBits += sb
			wantT = append(wantT, sym)
		}
		wantOut, _ := spec.Output(wantT)

		gotT, q, bits, out := p.SampleWalk(x, cmp)
		if len(gotT) != len(wantT) {
			t.Fatalf("trial %d: transcript %v, want %v", trial, gotT, wantT)
		}
		for i := range gotT {
			if gotT[i] != wantT[i] {
				t.Fatalf("trial %d: transcript %v, want %v", trial, gotT, wantT)
			}
		}
		if bits != wantBits || out != wantOut {
			t.Fatalf("trial %d: bits=%d out=%d, want %d/%d", trial, bits, out, wantBits, wantOut)
		}
		// q-factors: q[i][v] = Π_t P(sym_t | v) over i's speaking turns.
		for i := 0; i < 3; i++ {
			for v := 0; v < 4; v++ {
				want := 1.0
				var pre []int
				for _, sym := range wantT {
					speaker, _, _ := spec.NextSpeaker(pre)
					if speaker == i {
						d, _ := spec.MessageDist(pre, i, v)
						want *= d.P(sym)
					}
					pre = append(pre, sym)
				}
				if q[i][v] != want {
					t.Fatalf("trial %d: q[%d][%d]=%v, want %v", trial, i, v, q[i][v], want)
				}
			}
		}
		if rd, cd := ref.DrawsSince(mark), cmp.DrawsSince(mark); rd != cd {
			t.Fatalf("trial %d: draw streams diverged: %d vs %d", trial, rd, cd)
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
	if CompileSpec(spec).Estimator() {
		t.Fatal("a spec-only program claims estimator tables")
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

	p1 := SpecProgram(spec, spec.IRKey(), col)
	if p1 == nil {
		t.Fatal("first SpecProgram compile failed")
	}
	p2 := SpecProgram(spec, spec.IRKey(), col)
	if p2 != p1 {
		t.Fatal("second lookup did not return the cached program")
	}
	if h, m := col.Counter(telemetry.IRProgramHits), col.Counter(telemetry.IRProgramMisses); h != 1 || m != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", h, m)
	}
	if p1.KeySHA() == "" || len(p1.KeySHA()) != 64 {
		t.Fatalf("KeySHA %q, want 64 hex chars", p1.KeySHA())
	}

	// Ineligible specs are negatively cached: nil both times, second a hit.
	bad := keyedSpec{testSpec{}, "test/bad"}
	bad.inputSize = maxInputSize + 1
	bad.k = 2
	if p := SpecProgram(bad, bad.IRKey(), col); p != nil {
		t.Fatal("ineligible spec compiled")
	}
	if p := SpecProgram(bad, bad.IRKey(), col); p != nil {
		t.Fatal("ineligible spec compiled on second lookup")
	}
	if h := col.Counter(telemetry.IRProgramHits); h != 2 {
		t.Fatalf("hits=%d after negative-cache lookup, want 2", h)
	}
}

func TestBoardExecDeterministic(t *testing.T) {
	spec := testSpec{k: 2, inputSize: 2, rounds: 2, bias: 0}
	p := CompileSpec(spec)
	if p == nil {
		t.Fatal("CompileSpec returned nil")
	}
	for x0 := 0; x0 < 2; x0++ {
		for x1 := 0; x1 < 2; x1++ {
			e, err := NewBoardExec(p, []int{x0, x1}, nil)
			if err != nil {
				t.Fatal(err)
			}
			// Drive the scheduler/players loop by hand.
			for {
				sp, done, err := e.Scheduler().Next(nil)
				if err != nil {
					t.Fatal(err)
				}
				if done {
					break
				}
				if _, err := e.Players()[sp].Speak(nil); err != nil {
					t.Fatal(err)
				}
			}
			out, err := e.Output()
			if err != nil {
				t.Fatal(err)
			}
			if want := x0 ^ x1; out != want {
				t.Fatalf("x=(%d,%d): output %d, want %d", x0, x1, out, want)
			}
			tr := e.Transcript()
			if len(tr) != 2 || tr[0] != x0 || tr[1] != x1 {
				t.Fatalf("x=(%d,%d): transcript %v", x0, x1, tr)
			}
		}
	}
	// Randomized program without a private source must be refused.
	rp := CompileSpec(testSpec{k: 2, inputSize: 2, rounds: 2, bias: 0.3})
	if _, err := NewBoardExec(rp, []int{0, 1}, nil); err == nil {
		t.Fatal("randomized program accepted without private randomness")
	}
}
