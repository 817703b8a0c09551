package encoding

import (
	"bytes"
	"fmt"
	"math/big"
	"testing"
	"testing/quick"

	"broadcastic/internal/rng"
)

func TestEnumerativeRankBijectionExhaustive(t *testing.T) {
	for m := 0; m <= 8; m++ {
		for w := 0; w <= m; w++ {
			total := Binomial(m, w).Int64()
			seen := make(map[int64]bool, total)
			enumerateSubsets(m, w, func(subset []int) {
				rank, err := EnumerativeRank(m, subset)
				if err != nil {
					t.Fatalf("rank m=%d w=%d %v: %v", m, w, subset, err)
				}
				rv := rank.Int64()
				if rv < 0 || rv >= total {
					t.Fatalf("rank %d outside [0,%d)", rv, total)
				}
				if seen[rv] {
					t.Fatalf("duplicate rank %d at m=%d w=%d", rv, m, w)
				}
				seen[rv] = true
				back, err := EnumerativeUnrank(m, w, rank)
				if err != nil {
					t.Fatalf("unrank m=%d w=%d rank=%d: %v", m, w, rv, err)
				}
				if !equalInts(back, subset) {
					t.Fatalf("unrank(rank(%v)) = %v", subset, back)
				}
				if cns := lexRankViaCNS(t, m, subset); cns.Cmp(rank) != 0 {
					t.Fatalf("m=%d %v: lexicographic rank %d, combinatorial number system gives %v", m, subset, rv, cns)
				}
			})
			if int64(len(seen)) != total {
				t.Fatalf("m=%d w=%d: %d ranks, want %d", m, w, len(seen), total)
			}
		}
	}
}

func TestEnumerativeRankLexOrder(t *testing.T) {
	// The code is lexicographic: {0,1} < {0,2} < {1,2} over m=3.
	ranks := make([]int64, 0, 3)
	for _, s := range [][]int{{0, 1}, {0, 2}, {1, 2}} {
		r, err := EnumerativeRank(3, s)
		if err != nil {
			t.Fatal(err)
		}
		ranks = append(ranks, r.Int64())
	}
	if !(ranks[0] < ranks[1] && ranks[1] < ranks[2]) {
		t.Fatalf("ranks not lexicographic: %v", ranks)
	}
}

func TestEnumerativeValidation(t *testing.T) {
	if _, err := EnumerativeRank(3, []int{2, 1}); err == nil {
		t.Fatal("decreasing subset succeeded")
	}
	if _, err := EnumerativeRank(3, []int{0, 3}); err == nil {
		t.Fatal("out-of-range element succeeded")
	}
	if _, err := EnumerativeRank(2, []int{0, 1, 2}); err == nil {
		t.Fatal("oversized subset succeeded")
	}
	if _, err := EnumerativeUnrank(4, 2, big.NewInt(6)); err == nil {
		t.Fatal("rank = C(4,2) succeeded")
	}
	if _, err := EnumerativeUnrank(4, 2, big.NewInt(-1)); err == nil {
		t.Fatal("negative rank succeeded")
	}
	if _, err := EnumerativeUnrank(2, 3, big.NewInt(0)); err == nil {
		t.Fatal("w > m succeeded")
	}
}

func TestEnumerativeLargeRoundTrip(t *testing.T) {
	// The regime the optimal protocol uses: w ≈ m/k batches out of a large
	// universe, with C(m,w) one word ((64,16), as E20 writes), two, three,
	// four ((256,64), as E21 writes) and 26 words wide ((2048,512)); then
	// the edges w = 0, w = m, and C(m,w) a power of two. The written bits
	// must be the combinatorial number system's rank reflected into
	// lexicographic order, an oracle that shares neither the coder's
	// streaming recurrence nor its word kernel.
	src := rng.New(88)
	for _, cfg := range []struct{ m, w int }{
		{1000, 100}, {5000, 50}, {4096, 512}, {300, 300}, {300, 0},
		{64, 16}, {128, 32}, {192, 48}, {256, 64}, {2048, 512},
		{0, 0}, {1, 1}, {2, 1}, {64, 1}, {4096, 1}, {4096, 4095},
	} {
		for trial := 0; trial < 3; trial++ {
			subset := src.SampleWithoutReplacement(cfg.m, cfg.w)
			var bw BitWriter
			if err := WriteSubsetFast(&bw, cfg.m, subset); err != nil {
				t.Fatalf("m=%d w=%d: %v", cfg.m, cfg.w, err)
			}
			wantBits, err := BinomialBitLen(cfg.m, cfg.w)
			if err != nil {
				t.Fatal(err)
			}
			if bw.Len() != wantBits {
				t.Fatalf("m=%d w=%d: wrote %d bits, want %d", cfg.m, cfg.w, bw.Len(), wantBits)
			}
			var oracle BitWriter
			if err := writeBigInt(&oracle, lexRankViaCNS(t, cfg.m, subset), wantBits); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(bw.Bytes(), oracle.Bytes()) {
				t.Fatalf("m=%d w=%d %v: wrote %x, oracle rank is %x", cfg.m, cfg.w, subset, bw.Bytes(), oracle.Bytes())
			}
			r, _ := NewBitReader(bw.Bytes(), bw.Len())
			got, err := ReadSubsetFast(r, cfg.m, cfg.w)
			if err != nil {
				t.Fatal(err)
			}
			if !equalInts(got, subset) {
				t.Fatalf("m=%d w=%d: roundtrip mismatch", cfg.m, cfg.w)
			}
		}
	}
}

// lexRankViaCNS returns the lexicographic rank of a strictly increasing
// w-subset of [0, m) by way of the combinatorial number system: the
// reflection s ↦ m−1−s reverses the order, so the rank is
// C(m,w) − 1 − SubsetRank(m, sorted {m−1−s : s ∈ subset}).
func lexRankViaCNS(t *testing.T, m int, subset []int) *big.Int {
	t.Helper()
	w := len(subset)
	reflected := make([]int, w)
	for i, s := range subset {
		reflected[w-1-i] = m - 1 - s
	}
	colex, err := SubsetRank(m, reflected)
	if err != nil {
		t.Fatalf("SubsetRank(%d, %v): %v", m, reflected, err)
	}
	rank := Binomial(m, w)
	rank.Sub(rank, big.NewInt(1))
	return rank.Sub(rank, colex)
}

// At the sizes E20 and E21 write, the coder's accumulators stay in their
// stack arrays: a write allocates nothing and a read only the subset it
// returns.
func TestSubsetFastAllocs(t *testing.T) {
	src := rng.New(92)
	for _, cfg := range []struct{ m, w int }{{64, 16}, {256, 64}} {
		subset := src.SampleWithoutReplacement(cfg.m, cfg.w)
		var bw BitWriter
		write := func() {
			bw.Reset()
			if err := WriteSubsetFast(&bw, cfg.m, subset); err != nil {
				t.Fatal(err)
			}
		}
		write()
		if allocs := testing.AllocsPerRun(100, write); allocs != 0 {
			t.Errorf("m=%d w=%d: WriteSubsetFast allocates %v times, want 0", cfg.m, cfg.w, allocs)
		}
		r, err := NewBitReader(bw.Bytes(), bw.Len())
		if err != nil {
			t.Fatal(err)
		}
		read := func() {
			r.pos = 0
			if _, err := ReadSubsetFast(r, cfg.m, cfg.w); err != nil {
				t.Fatal(err)
			}
		}
		if allocs := testing.AllocsPerRun(100, read); allocs != 1 {
			t.Errorf("m=%d w=%d: ReadSubsetFast allocates %v times, want 1 (the subset)", cfg.m, cfg.w, allocs)
		}
	}
}

func TestEnumerativeMatchesCombinatorialBitLen(t *testing.T) {
	// Both encoders share the exact bit budget ⌈log₂ C(m,w)⌉.
	src := rng.New(89)
	check := func(mRaw, wRaw uint8) bool {
		m := int(mRaw%40) + 1
		w := int(wRaw) % (m + 1)
		subset := src.SampleWithoutReplacement(m, w)
		var b1, b2 BitWriter
		if err := WriteSubset(&b1, m, subset); err != nil {
			return false
		}
		if err := WriteSubsetFast(&b2, m, subset); err != nil {
			return false
		}
		return b1.Len() == b2.Len()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// The fast coder derives its scan start and code width from one binomial;
// pin it as a property against the independent combinatorial-number-system
// coder (SubsetRank/SubsetUnrank): on random subsets both codes round-trip,
// rank into [0, C(m,w)), and spend exactly BinomialBitLen bits.
func TestEnumerativeRoundTripMatchesCombinatorial(t *testing.T) {
	src := rng.New(91)
	check := func(mRaw uint16, wRaw uint16) bool {
		m := int(mRaw % 160)
		w := 0
		if m > 0 {
			w = int(wRaw) % (m + 1)
		}
		subset := src.SampleWithoutReplacement(m, w)
		total := Binomial(m, w)
		fastRank, err := EnumerativeRank(m, subset)
		if err != nil {
			t.Logf("EnumerativeRank(%d, %v): %v", m, subset, err)
			return false
		}
		rank, err := SubsetRank(m, subset)
		if err != nil {
			t.Logf("SubsetRank(%d, %v): %v", m, subset, err)
			return false
		}
		for _, r := range []*big.Int{fastRank, rank} {
			if r.Sign() < 0 || r.Cmp(total) >= 0 {
				t.Logf("m=%d w=%d: rank %v outside [0, %v)", m, w, r, total)
				return false
			}
		}
		fastBack, err := EnumerativeUnrank(m, w, fastRank)
		if err != nil || !equalInts(fastBack, subset) {
			t.Logf("m=%d w=%d: fast unrank %v, %v", m, w, fastBack, err)
			return false
		}
		back, err := SubsetUnrank(m, w, rank)
		if err != nil || !equalInts(back, subset) {
			t.Logf("m=%d w=%d: unrank %v, %v", m, w, back, err)
			return false
		}
		wantBits, err := BinomialBitLen(m, w)
		if err != nil {
			return false
		}
		var fast, slow BitWriter
		if WriteSubsetFast(&fast, m, subset) != nil || WriteSubset(&slow, m, subset) != nil {
			return false
		}
		if fast.Len() != wantBits || slow.Len() != wantBits {
			t.Logf("m=%d w=%d: wrote %d and %d bits, want %d", m, w, fast.Len(), slow.Len(), wantBits)
			return false
		}
		var oracle BitWriter
		if writeBigInt(&oracle, fastRank, wantBits) != nil || !bytes.Equal(fast.Bytes(), oracle.Bytes()) {
			t.Logf("m=%d w=%d: wrote %x, math/big rank %v", m, w, fast.Bytes(), fastRank)
			return false
		}
		r, _ := NewBitReader(fast.Bytes(), fast.Len())
		got, err := ReadSubsetFast(r, m, w)
		if err != nil || !equalInts(got, subset) {
			t.Logf("m=%d w=%d: fast read %v, %v", m, w, got, err)
			return false
		}
		r, _ = NewBitReader(slow.Bytes(), slow.Len())
		got, err = ReadSubset(r, m, w)
		return err == nil && equalInts(got, subset)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSubsetFastRoundTrip(b *testing.B) {
	src := rng.New(90)
	for _, cfg := range []struct{ m, w int }{{16384, 2048}, {256, 64}} {
		subset := src.SampleWithoutReplacement(cfg.m, cfg.w)
		b.Run(fmt.Sprintf("m%d_w%d", cfg.m, cfg.w), func(b *testing.B) {
			b.ReportAllocs()
			var bw BitWriter
			var buf []byte
			for i := 0; i < b.N; i++ {
				bw.Reset()
				if err := WriteSubsetFast(&bw, cfg.m, subset); err != nil {
					b.Fatal(err)
				}
				buf = bw.AppendTo(buf[:0])
				r, err := NewBitReader(buf, bw.Len())
				if err != nil {
					b.Fatal(err)
				}
				if _, err := ReadSubsetFast(r, cfg.m, cfg.w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// The math/big enumerative coder below is the test oracle of the word
// kernel in subsetcode.go: the same lexicographic rank and the same
// streaming recurrence, in big-integer arithmetic.

// EnumerativeRank maps a strictly increasing w-subset of [0, m) to its rank
// in [0, C(m, w)) under the lexicographic enumerative code.
func EnumerativeRank(m int, subset []int) (*big.Int, error) {
	total, err := subsetTotal(m, len(subset))
	if err != nil {
		return nil, err
	}
	return enumerativeRank(m, subset, total)
}

// EnumerativeUnrank inverts EnumerativeRank.
func EnumerativeUnrank(m, w int, rank *big.Int) ([]int, error) {
	total, err := subsetTotal(m, w)
	if err != nil {
		return nil, err
	}
	return enumerativeUnrank(m, w, rank, total)
}

// subsetTotal returns C(m, w), the number of w-subsets of [0, m).
func subsetTotal(m, w int) (*big.Int, error) {
	if w < 0 || w > m {
		return nil, fmt.Errorf("encoding: subset of size %d over universe %d", w, m)
	}
	return new(big.Int).Binomial(int64(m), int64(w)), nil
}

// scanStart returns C(m−1, w−1) = total · w / m for total = C(m, w), w ≥ 1.
func scanStart(total *big.Int, m, w int) *big.Int {
	cur := new(big.Int).Mul(total, big.NewInt(int64(w)))
	return cur.Quo(cur, big.NewInt(int64(m)))
}

// enumerativeRank maps a strictly increasing w-subset of [0, m) to its
// rank in lexicographic order, given total = C(m, len(subset)).
func enumerativeRank(m int, subset []int, total *big.Int) (*big.Int, error) {
	w := len(subset)
	rank := new(big.Int)
	if w == 0 {
		return rank, nil
	}
	prev := -1
	for _, p := range subset {
		if p <= prev || p < 0 || p >= m {
			return nil, fmt.Errorf("encoding: subset not strictly increasing in [0,%d): %v", m, subset)
		}
		prev = p
	}
	// cur = C(m-v-1, r-1) as v scans the universe.
	r := w
	cur := scanStart(total, m, w)
	tmp := new(big.Int)
	idx := 0
	for v := 0; v < m && r > 0; v++ {
		a := int64(m - v - 1) // cur = C(a, r-1) before the update below
		if idx < w && subset[idx] == v {
			// v selected: next cur = C(a-1, r-2) = cur·(r-1)/a.
			idx++
			r--
			if r == 0 {
				break
			}
			if a > 0 {
				tmp.SetInt64(int64(r))
				cur.Mul(cur, tmp)
				tmp.SetInt64(a)
				cur.Div(cur, tmp)
			}
			continue
		}
		// v skipped: all subsets containing v at this point precede ours.
		rank.Add(rank, cur)
		// next cur = C(a-1, r-1) = cur·(a-(r-1))/a.
		if a > 0 {
			tmp.SetInt64(a - int64(r-1))
			cur.Mul(cur, tmp)
			tmp.SetInt64(a)
			cur.Div(cur, tmp)
		}
	}
	if idx != w {
		return nil, fmt.Errorf("encoding: enumerative rank consumed %d of %d elements", idx, w)
	}
	return rank, nil
}

// enumerativeUnrank inverts enumerativeRank, given total = C(m, w).
func enumerativeUnrank(m, w int, rank, total *big.Int) ([]int, error) {
	if rank.Sign() < 0 || rank.Cmp(total) >= 0 {
		return nil, fmt.Errorf("encoding: rank %v outside [0, C(%d,%d))", rank, m, w)
	}
	out := make([]int, 0, w)
	if w == 0 {
		return out, nil
	}
	r := w
	rem := new(big.Int).Set(rank)
	cur := scanStart(total, m, w)
	tmp := new(big.Int)
	for v := 0; v < m && r > 0; v++ {
		a := int64(m - v - 1)
		if rem.Cmp(cur) < 0 {
			out = append(out, v)
			r--
			if r == 0 {
				break
			}
			if a > 0 {
				tmp.SetInt64(int64(r))
				cur.Mul(cur, tmp)
				tmp.SetInt64(a)
				cur.Div(cur, tmp)
			}
			continue
		}
		rem.Sub(rem, cur)
		if a > 0 {
			tmp.SetInt64(a - int64(r-1))
			cur.Mul(cur, tmp)
			tmp.SetInt64(a)
			cur.Div(cur, tmp)
		}
	}
	if len(out) != w {
		return nil, fmt.Errorf("encoding: enumerative unrank produced %d of %d elements", len(out), w)
	}
	return out, nil
}
