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
