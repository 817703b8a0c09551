package encoding

import (
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
	// universe.
	src := rng.New(88)
	for _, cfg := range []struct{ m, w int }{
		{1000, 100}, {5000, 50}, {4096, 512}, {300, 300}, {300, 0},
	} {
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

func BenchmarkEnumerativeRankLarge(b *testing.B) {
	src := rng.New(90)
	const m, w = 16384, 2048
	subset := src.SampleWithoutReplacement(m, w)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EnumerativeRank(m, subset); err != nil {
			b.Fatal(err)
		}
	}
}

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
