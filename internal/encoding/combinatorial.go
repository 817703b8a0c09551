package encoding

import (
	"fmt"
	"math/big"
)

// Combinatorial number system: a bijection between w-subsets of [0, m) and
// integers in [0, C(m, w)). This is exactly the "encode them as a set"
// batching device of the Section 5 protocol: a player with z_i/k fresh zero
// coordinates inside the live set Z_i writes the subset's rank in
// ⌈log2 C(z_i, z_i/k)⌉ bits — an amortized Θ(log k) bits per coordinate
// instead of the naive Θ(log n).

// Binomial returns C(n, k) as a big integer (0 when k < 0 or k > n).
func Binomial(n, k int) *big.Int {
	if k < 0 || k > n || n < 0 {
		return big.NewInt(0)
	}
	return new(big.Int).Binomial(int64(n), int64(k))
}

// BinomialBitLen returns ⌈log2 C(n, k)⌉, the exact bit cost of transmitting
// one w-subset rank.
func BinomialBitLen(n, k int) (int, error) {
	c := Binomial(n, k)
	if c.Sign() == 0 {
		return 0, fmt.Errorf("encoding: C(%d,%d) is zero", n, k)
	}
	return ceilLog2(c), nil
}

// ceilLog2 returns ⌈log₂ c⌉ for c ≥ 1: the bit length, less one when c is
// a power of two.
func ceilLog2(c *big.Int) int {
	n := c.BitLen()
	if c.TrailingZeroBits() == uint(n-1) {
		return n - 1
	}
	return n
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

// writeBigInt writes v as exactly width bits, MSB first.
func writeBigInt(w *BitWriter, v *big.Int, width int) error {
	if v.Sign() < 0 {
		return fmt.Errorf("encoding: negative big integer")
	}
	if v.BitLen() > width {
		return fmt.Errorf("encoding: value needs %d bits, budget %d", v.BitLen(), width)
	}
	for i := width - 1; i >= 0; i-- {
		if err := w.WriteBit(int(v.Bit(i))); err != nil {
			return err
		}
	}
	return nil
}

// readBigInt reads exactly width bits into a big integer, MSB first.
func readBigInt(r *BitReader, width int) (*big.Int, error) {
	v := new(big.Int)
	for i := 0; i < width; i++ {
		b, err := r.ReadBit()
		if err != nil {
			return nil, err
		}
		v.Lsh(v, 1)
		if b == 1 {
			v.SetBit(v, 0, 1)
		}
	}
	return v, nil
}
