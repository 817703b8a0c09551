package encoding

import "fmt"

// Streaming enumerative subset coding.
//
// The Section 5 protocol writes a batch of w new zeroes as a w-subset of
// the live set, in ⌈log₂ C(m,w)⌉ bits: the subset's rank in lexicographic
// order. The coder walks the universe once and keeps the binomial it adds
// to the rank up to date with one exact multiply and one exact divide per
// universe step:
//
//	C(a−1, b)   = C(a, b) · (a−b) / a
//	C(a−1, b−1) = C(a, b) · b / a
//
// Both divisions are exact over the integers, so the stream stays precise.
// The only other binomial a subset costs is C(m, w): it gives the code
// width ⌈log₂ C(m,w)⌉, bounds the rank, and yields the scan's starting
// value C(m−1, w−1) = C(m, w) · w / m by the same exact update.
//
// The arithmetic runs on nat, machine words with math/bits kernels. The
// total, the running binomial and the rank (or, decoding, the remainder)
// start in stack arrays of scratchWords words each and grow by append
// only for wider values, so at the protocol's usual sizes a write
// allocates nothing and a read allocates only the subset it returns. The
// rank moves to and from the bit stream in chunks of at most 64 bits,
// most significant first. The tests pin the code bit for bit against a
// math/big coder and against the combinatorial number system.

// scratchWords is the stack capacity of each coder accumulator: 512 bits,
// which holds the batches netrun's E20 and E21 write at quick scale
// (C(64,16) is one word, C(256,64) four) with room for the scan's
// one-word-wider products.
const scratchWords = 8

// BinomialBitLen returns ⌈log2 C(n, k)⌉, the exact bit cost of transmitting
// one w-subset rank.
func BinomialBitLen(n, k int) (int, error) {
	if n < 0 || k < 0 || k > n {
		return 0, fmt.Errorf("encoding: C(%d,%d) is zero", n, k)
	}
	var buf [scratchWords]uint64
	return nat(buf[:0]).binomial(n, k).ceilLog2(), nil
}

// WriteSubsetFast encodes a w-subset of [0, m) in exactly ⌈log₂ C(m,w)⌉
// bits using the streaming enumerative code. Decoder must know m and w.
func WriteSubsetFast(w *BitWriter, m int, subset []int) error {
	size := len(subset)
	if size > m {
		return fmt.Errorf("encoding: subset of size %d over universe %d", size, m)
	}
	prev := -1
	for _, p := range subset {
		if p <= prev || p >= m {
			return fmt.Errorf("encoding: subset not strictly increasing in [0,%d): %v", m, subset)
		}
		prev = p
	}
	var totalBuf, curBuf, rankBuf [scratchWords]uint64
	total := nat(totalBuf[:0]).binomial(m, size)
	rank := nat(rankBuf[:0])
	if size > 0 {
		// cur = C(a, left−1) for a = m−v−1 as v scans the universe with
		// left elements still to select.
		cur := nat(curBuf[:0]).set(total).mulWord(uint64(size)).divWord(uint64(m))
		left, idx := size, 0
		for v := 0; ; v++ {
			a := uint64(m - v - 1)
			if subset[idx] == v {
				idx++
				left--
				if left == 0 {
					break
				}
				cur = cur.mulWord(uint64(left)).divWord(a)
				continue
			}
			// Every subset that selects v here precedes ours.
			rank = rank.add(cur)
			cur = cur.mulWord(a - uint64(left-1)).divWord(a)
		}
	}
	return writeNat(w, rank, total.ceilLog2())
}

// ReadSubsetFast decodes a subset written with WriteSubsetFast.
func ReadSubsetFast(r *BitReader, m, size int) ([]int, error) {
	if size < 0 || size > m {
		return nil, fmt.Errorf("encoding: subset of size %d over universe %d", size, m)
	}
	var totalBuf, curBuf, remBuf [scratchWords]uint64
	total := nat(totalBuf[:0]).binomial(m, size)
	width := total.ceilLog2()
	rem, err := readNat(r, nat(remBuf[:0]), width)
	if err != nil {
		return nil, err
	}
	if rem.cmp(total) >= 0 {
		return nil, fmt.Errorf("encoding: %d-bit rank outside [0, C(%d,%d))", width, m, size)
	}
	out := make([]int, 0, size)
	if size == 0 {
		return out, nil
	}
	cur := nat(curBuf[:0]).set(total).mulWord(uint64(size)).divWord(uint64(m))
	left := size
	for v := 0; v < m; v++ {
		a := uint64(m - v - 1)
		if rem.cmp(cur) < 0 {
			out = append(out, v)
			left--
			if left == 0 {
				break
			}
			cur = cur.mulWord(uint64(left)).divWord(a)
			continue
		}
		rem = rem.sub(cur)
		cur = cur.mulWord(a - uint64(left-1)).divWord(a)
	}
	if len(out) != size {
		return nil, fmt.Errorf("encoding: enumerative unrank produced %d of %d elements", len(out), size)
	}
	return out, nil
}

// writeNat writes v < 2^width as exactly width bits, most significant
// first, in chunks of at most 64 bits.
func writeNat(w *BitWriter, v nat, width int) error {
	words := (width + 63) / 64
	for i := words - 1; i >= 0; i-- {
		var x uint64
		if i < len(v) {
			x = v[i]
		}
		if err := w.WriteBits(x, min(64, width-64*i)); err != nil {
			return err
		}
	}
	return nil
}

// readNat reads exactly width bits, most significant first, into z.
func readNat(r *BitReader, z nat, width int) (nat, error) {
	words := (width + 63) / 64
	z = z[:0]
	for len(z) < words {
		z = append(z, 0)
	}
	for i := words - 1; i >= 0; i-- {
		x, err := r.ReadBits(min(64, width-64*i))
		if err != nil {
			return nil, err
		}
		z[i] = x
	}
	return z.norm(), nil
}
