package encoding

import (
	"fmt"
	"math/bits"
)

// Prefix-free integer codes.
//
// The Lemma 7 sampler transmits three fields per message: a block index
// (binomially distributed with mean 1 → Elias gamma makes it O(1) expected
// bits), a log-ratio s (small non-negative integer → gamma), and an index
// within the surviving candidate set (expected magnitude 2^s → gamma costs
// ≈ s + 2 log s bits, matching the "roughly s bits" of the paper). All codes
// here are self-delimiting so a reader never needs an out-of-band length.

// WriteEliasGamma encodes v >= 1: the bit-length of v in unary-minus-one,
// then the value's bits below the leading one. Length 2⌊log2 v⌋ + 1.
func WriteEliasGamma(w *BitWriter, v uint64) error {
	if v == 0 {
		return fmt.Errorf("encoding: Elias gamma undefined for 0")
	}
	n := bits.Len64(v) // position of leading one
	for i := 0; i < n-1; i++ {
		if err := w.WriteBit(0); err != nil {
			return err
		}
	}
	return w.WriteBits(v, n)
}

// ReadEliasGamma decodes an Elias gamma value.
func ReadEliasGamma(r *BitReader) (uint64, error) {
	zeros := 0
	for {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		if b == 1 {
			break
		}
		zeros++
		if zeros > 63 {
			return 0, fmt.Errorf("encoding: Elias gamma prefix overflow")
		}
	}
	rest, err := r.ReadBits(zeros)
	if err != nil {
		return 0, err
	}
	return 1<<uint(zeros) | rest, nil
}

// EliasGammaLen returns the encoded length of v >= 1 in bits.
func EliasGammaLen(v uint64) int {
	if v == 0 {
		return 0
	}
	return 2*bits.Len64(v) - 1
}

// WriteNonNeg encodes an arbitrary v >= 0 by gamma-coding v+1. Convenient
// for fields (like the Lemma 7 log-ratio) that may be zero.
func WriteNonNeg(w *BitWriter, v uint64) error {
	if v == ^uint64(0) {
		return fmt.Errorf("encoding: value overflow")
	}
	return WriteEliasGamma(w, v+1)
}

// ReadNonNeg decodes a value written with WriteNonNeg.
func ReadNonNeg(r *BitReader) (uint64, error) {
	v, err := ReadEliasGamma(r)
	if err != nil {
		return 0, err
	}
	return v - 1, nil
}

// NonNegLen returns the encoded length of v under WriteNonNeg.
func NonNegLen(v uint64) int { return EliasGammaLen(v + 1) }

// WriteSignedGamma encodes a signed integer via the zigzag map
// 0,-1,1,-2,2 → 0,1,2,3,4 followed by WriteNonNeg. Used for the Lemma 7
// log-ratio field, which the paper notes may be negative.
func WriteSignedGamma(w *BitWriter, v int64) error {
	return WriteNonNeg(w, zigzag(v))
}

// SignedGammaLen returns the encoded length of v under WriteSignedGamma.
func SignedGammaLen(v int64) int { return NonNegLen(zigzag(v)) }

func zigzag(v int64) uint64 { return uint64((v << 1) ^ (v >> 63)) }

// FixedWidth returns the number of bits needed to index a set of the given
// size: ⌈log2 size⌉, with size 1 needing 0 bits.
func FixedWidth(size uint64) int {
	if size <= 1 {
		return 0
	}
	return bits.Len64(size - 1)
}
