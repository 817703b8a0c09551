package encoding

import (
	"fmt"
	"math/big"
)

// Streaming enumerative subset coding.
//
// The combinatorial-number-system ranking (the slow coder the tests check
// this one against) recomputes binomials from scratch; the Section 5
// protocol transmits batches with w up to z/k out of universes with z up
// to n, where that becomes prohibitive. The functions here implement the
// same bijection cost
// (⌈log₂ C(m,w)⌉ bits per subset) via a lexicographic enumerative code
// whose binomial coefficient is updated incrementally with one exact
// multiply/divide per universe step:
//
//	C(a−1, b)   = C(a, b) · (a−b) / a
//	C(a−1, b−1) = C(a, b) · b / a
//
// Both divisions are exact over the integers, so the stream stays precise.
// The only big binomial a subset costs is C(m, w): it gives the code width
// ⌈log₂ C(m,w)⌉, bounds the rank, and yields the scan's starting value
// C(m−1, w−1) = C(m, w) · w / m by the same exact update.

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

// WriteSubsetFast encodes a w-subset of [0, m) in exactly ⌈log₂ C(m,w)⌉
// bits using the streaming enumerative code. Decoder must know m and w.
func WriteSubsetFast(w *BitWriter, m int, subset []int) error {
	total, err := subsetTotal(m, len(subset))
	if err != nil {
		return err
	}
	rank, err := enumerativeRank(m, subset, total)
	if err != nil {
		return err
	}
	return writeBigInt(w, rank, ceilLog2(total))
}

// ReadSubsetFast decodes a subset written with WriteSubsetFast.
func ReadSubsetFast(r *BitReader, m, size int) ([]int, error) {
	total, err := subsetTotal(m, size)
	if err != nil {
		return nil, err
	}
	rank, err := readBigInt(r, ceilLog2(total))
	if err != nil {
		return nil, err
	}
	return enumerativeUnrank(m, size, rank, total)
}
