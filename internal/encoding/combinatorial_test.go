package encoding

import (
	"fmt"
	"math/big"
	"testing"
	"testing/quick"

	"broadcastic/internal/rng"
)

func TestBinomialKnown(t *testing.T) {
	cases := []struct {
		n, k int
		want int64
	}{
		{5, 2, 10}, {5, 0, 1}, {5, 5, 1}, {10, 3, 120},
		{0, 0, 1}, {3, 4, 0}, {3, -1, 0}, {-1, 0, 0},
	}
	for _, tc := range cases {
		if got := Binomial(tc.n, tc.k); got.Int64() != tc.want {
			t.Fatalf("C(%d,%d) = %v, want %d", tc.n, tc.k, got, tc.want)
		}
	}
}

func TestBinomialBitLen(t *testing.T) {
	// C(10,3)=120 -> 7 bits; C(5,5)=1 -> 0 bits; C(2,1)=2 -> 1 bit.
	cases := []struct{ n, k, want int }{
		{10, 3, 7}, {5, 5, 0}, {2, 1, 1}, {4, 2, 3},
	}
	for _, tc := range cases {
		got, err := BinomialBitLen(tc.n, tc.k)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Fatalf("BinomialBitLen(%d,%d) = %d, want %d", tc.n, tc.k, got, tc.want)
		}
	}
	if _, err := BinomialBitLen(3, 5); err == nil {
		t.Fatal("BinomialBitLen of zero binomial succeeded")
	}
}

func TestSubsetRankBijectionExhaustive(t *testing.T) {
	// For every (m, w) with m <= 7, every subset must rank to a distinct
	// value in [0, C(m,w)) and unrank back to itself.
	for m := 0; m <= 7; m++ {
		for w := 0; w <= m; w++ {
			total := Binomial(m, w).Int64()
			seen := make(map[int64]bool, total)
			enumerateSubsets(m, w, func(subset []int) {
				rank, err := SubsetRank(m, subset)
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
				back, err := SubsetUnrank(m, w, rank)
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

func enumerateSubsets(m, w int, visit func([]int)) {
	subset := make([]int, w)
	var rec func(start, idx int)
	rec = func(start, idx int) {
		if idx == w {
			visit(subset)
			return
		}
		for v := start; v < m; v++ {
			subset[idx] = v
			rec(v+1, idx+1)
		}
	}
	rec(0, 0)
}

func TestSubsetRankValidation(t *testing.T) {
	if _, err := SubsetRank(5, []int{3, 2}); err == nil {
		t.Fatal("non-increasing subset succeeded")
	}
	if _, err := SubsetRank(5, []int{1, 1}); err == nil {
		t.Fatal("duplicate element succeeded")
	}
	if _, err := SubsetRank(5, []int{5}); err == nil {
		t.Fatal("out-of-range element succeeded")
	}
	if _, err := SubsetRank(2, []int{0, 1, 2}); err == nil {
		t.Fatal("oversized subset succeeded")
	}
}

func TestSubsetUnrankValidation(t *testing.T) {
	if _, err := SubsetUnrank(5, 2, big.NewInt(10)); err == nil {
		t.Fatal("rank = C(5,2) succeeded")
	}
	if _, err := SubsetUnrank(5, 2, big.NewInt(-1)); err == nil {
		t.Fatal("negative rank succeeded")
	}
	if _, err := SubsetUnrank(5, 6, big.NewInt(0)); err == nil {
		t.Fatal("w > m succeeded")
	}
}

func TestWriteReadSubsetProperty(t *testing.T) {
	src := rng.New(81)
	check := func(mRaw, wRaw uint8) bool {
		m := int(mRaw%60) + 1
		w := int(wRaw) % (m + 1)
		subset := src.SampleWithoutReplacement(m, w)
		var bw BitWriter
		if err := WriteSubset(&bw, m, subset); err != nil {
			return false
		}
		wantBits, err := BinomialBitLen(m, w)
		if err != nil || bw.Len() != wantBits {
			return false
		}
		r, _ := NewBitReader(bw.Bytes(), bw.Len())
		got, err := ReadSubset(r, m, w)
		if err != nil {
			return false
		}
		return equalInts(got, subset)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSubsetEncodingBeatsNaiveForBatches(t *testing.T) {
	// The Section 5 rationale: sending a (m/k)-subset of [m] costs about
	// (m/k)·log2(e·k) bits, strictly less than the naive (m/k)·log2(m)
	// when k << m.
	m, k := 10000, 10
	w := m / k
	batched, err := BinomialBitLen(m, w)
	if err != nil {
		t.Fatal(err)
	}
	naive := w * FixedWidth(uint64(m))
	if batched >= naive {
		t.Fatalf("batched %d bits not below naive %d bits", batched, naive)
	}
	// Per-coordinate cost must be within a small factor of log2(e·k).
	perCoord := float64(batched) / float64(w)
	if perCoord > 1.5*logBase2(2.72*float64(k)) {
		t.Fatalf("per-coordinate cost %v too far above log2(e·k)", perCoord)
	}
}

func logBase2(x float64) float64 {
	// tiny local helper to avoid importing math in more places
	l := 0.0
	for x >= 2 {
		x /= 2
		l++
	}
	return l + x - 1 // crude linear interpolation; adequate for the tolerance above
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// SubsetRank maps a strictly increasing w-subset of [0, m) to its rank in
// [0, C(m, w)) under the colexicographic-style combinatorial numbering
// rank = Σ_j C(subset[j], j+1).
func SubsetRank(m int, subset []int) (*big.Int, error) {
	w := len(subset)
	if w > m {
		return nil, fmt.Errorf("encoding: subset of size %d over universe %d", w, m)
	}
	rank := new(big.Int)
	prev := -1
	for j, v := range subset {
		if v <= prev || v < 0 || v >= m {
			return nil, fmt.Errorf("encoding: subset not strictly increasing in [0,%d): %v", m, subset)
		}
		prev = v
		rank.Add(rank, Binomial(v, j+1))
	}
	return rank, nil
}

// SubsetUnrank inverts SubsetRank: given m, w and a rank in [0, C(m, w)),
// it reconstructs the strictly increasing subset.
func SubsetUnrank(m, w int, rank *big.Int) ([]int, error) {
	if w < 0 || w > m {
		return nil, fmt.Errorf("encoding: subset size %d outside [0,%d]", w, m)
	}
	total := Binomial(m, w)
	if rank.Sign() < 0 || rank.Cmp(total) >= 0 {
		return nil, fmt.Errorf("encoding: rank %v outside [0, C(%d,%d)=%v)", rank, m, w, total)
	}
	out := make([]int, w)
	r := new(big.Int).Set(rank)
	v := m - 1
	for j := w; j >= 1; j-- {
		// Find the largest v with C(v, j) <= r.
		for v >= 0 && Binomial(v, j).Cmp(r) > 0 {
			v--
		}
		if v < 0 {
			return nil, fmt.Errorf("encoding: unrank failed at position %d", j)
		}
		out[j-1] = v
		r.Sub(r, Binomial(v, j))
		v--
	}
	if r.Sign() != 0 {
		return nil, fmt.Errorf("encoding: unrank residual %v", r)
	}
	return out, nil
}

// WriteSubset encodes a strictly increasing w-subset of [0, m) into w's
// exact bit budget ⌈log2 C(m, w)⌉. The decoder must know m and w.
func WriteSubset(w *BitWriter, m int, subset []int) error {
	rank, err := SubsetRank(m, subset)
	if err != nil {
		return err
	}
	width, err := BinomialBitLen(m, len(subset))
	if err != nil {
		return err
	}
	return writeBigInt(w, rank, width)
}

// ReadSubset decodes a subset written with WriteSubset.
func ReadSubset(r *BitReader, m, size int) ([]int, error) {
	width, err := BinomialBitLen(m, size)
	if err != nil {
		return nil, err
	}
	rank, err := readBigInt(r, width)
	if err != nil {
		return nil, err
	}
	return SubsetUnrank(m, size, rank)
}
