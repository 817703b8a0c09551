package encoding

import "math/bits"

// nat is a non-negative integer as little-endian 64-bit words, kept
// normalized: the top word is nonzero and zero is the empty slice. It is
// the subset coder's arithmetic, so it has only the operations that coder
// needs. Every operation works in place and returns the result; a result
// grows by append only when it needs more words than the slice's capacity,
// so a nat backed by a caller's stack array allocates nothing while the
// value fits that array.
type nat []uint64

// norm trims high zero words.
func (z nat) norm() nat {
	i := len(z)
	for i > 0 && z[i-1] == 0 {
		i--
	}
	return z[:i]
}

// set sets z = x.
func (z nat) set(x nat) nat {
	return append(z[:0], x...)
}

// mulWord sets z = z·y for y > 0.
func (z nat) mulWord(y uint64) nat {
	var carry uint64
	for i, x := range z {
		hi, lo := bits.Mul64(x, y)
		var c uint64
		z[i], c = bits.Add64(lo, carry, 0)
		carry = hi + c
	}
	if carry != 0 {
		z = append(z, carry)
	}
	return z
}

// divWord sets z = z / y for a y > 0 that divides z exactly.
func (z nat) divWord(y uint64) nat {
	var r uint64
	for i := len(z) - 1; i >= 0; i-- {
		z[i], r = bits.Div64(r, z[i], y)
	}
	return z.norm()
}

// add sets z = z + x.
func (z nat) add(x nat) nat {
	for len(z) < len(x) {
		z = append(z, 0)
	}
	var c uint64
	for i, xi := range x {
		z[i], c = bits.Add64(z[i], xi, c)
	}
	for i := len(x); c != 0 && i < len(z); i++ {
		z[i], c = bits.Add64(z[i], 0, c)
	}
	if c != 0 {
		z = append(z, c)
	}
	return z
}

// sub sets z = z − x for x ≤ z.
func (z nat) sub(x nat) nat {
	var b uint64
	for i, xi := range x {
		z[i], b = bits.Sub64(z[i], xi, b)
	}
	for i := len(x); b != 0 && i < len(z); i++ {
		z[i], b = bits.Sub64(z[i], 0, b)
	}
	return z.norm()
}

// cmp returns −1, 0 or +1 as z is less than, equal to or greater than x.
func (z nat) cmp(x nat) int {
	if len(z) != len(x) {
		if len(z) < len(x) {
			return -1
		}
		return 1
	}
	for i := len(z) - 1; i >= 0; i-- {
		if z[i] != x[i] {
			if z[i] < x[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// ceilLog2 returns ⌈log₂ z⌉ for z ≥ 1: the bit length, less one when z is
// a power of two.
func (z nat) ceilLog2() int {
	top := len(z) - 1
	n := 64*top + bits.Len64(z[top])
	if z[top]&(z[top]-1) != 0 {
		return n
	}
	for _, x := range z[:top] {
		if x != 0 {
			return n
		}
	}
	return n - 1
}

// binomial sets z = C(m, w) for 0 ≤ w ≤ m by the exact recurrence
// C(m−w+i, i) = C(m−w+i−1, i−1)·(m−w+i)/i, run over the smaller of w and
// m − w.
func (z nat) binomial(m, w int) nat {
	if w > m-w {
		w = m - w
	}
	z = append(z[:0], 1)
	for i := 1; i <= w; i++ {
		z = z.mulWord(uint64(m - w + i)).divWord(uint64(i))
	}
	return z
}
