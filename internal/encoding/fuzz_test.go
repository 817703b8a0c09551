package encoding

import (
	"bytes"
	"fmt"
	"testing"
)

// Native fuzz targets for the self-delimiting codes. Each encoder/decoder
// pair must round-trip every representable value, the *Len helpers must
// agree with the bits actually written, and the decoders must reject (not
// panic on) adversarial bit streams. Seeds mirror the boundary values of
// the table-driven tests in varint_test.go and combinatorial_test.go.

// encodeOne writes v with write and returns the packed bits and bit count.
func encodeOne(t *testing.T, write func(*BitWriter) error) ([]byte, int) {
	t.Helper()
	var w BitWriter
	if err := write(&w); err != nil {
		t.Fatal(err)
	}
	return w.Bytes(), w.Len()
}

func FuzzEliasGammaRoundTrip(f *testing.F) {
	for _, v := range []uint64{1, 2, 3, 127, 128, 1 << 32, ^uint64(0)} {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v uint64) {
		if v == 0 {
			var w BitWriter
			if err := WriteEliasGamma(&w, 0); err == nil {
				t.Fatal("gamma accepted 0")
			}
			return
		}
		buf, n := encodeOne(t, func(w *BitWriter) error { return WriteEliasGamma(w, v) })
		if n != EliasGammaLen(v) {
			t.Fatalf("EliasGammaLen(%d)=%d, wrote %d bits", v, EliasGammaLen(v), n)
		}
		r, err := NewBitReader(buf, n)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ReadEliasGamma(r)
		if err != nil {
			t.Fatal(err)
		}
		if got != v {
			t.Fatalf("round trip %d -> %d", v, got)
		}
	})
}

func FuzzNonNegRoundTrip(f *testing.F) {
	for _, v := range []uint64{0, 1, 2, 255, 1 << 40} {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v uint64) {
		if v == ^uint64(0) {
			return // v+1 would overflow; rejected by design
		}
		buf, n := encodeOne(t, func(w *BitWriter) error { return WriteNonNeg(w, v) })
		if n != NonNegLen(v) {
			t.Fatalf("NonNegLen(%d)=%d, wrote %d bits", v, NonNegLen(v), n)
		}
		r, err := NewBitReader(buf, n)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ReadNonNeg(r)
		if err != nil {
			t.Fatal(err)
		}
		if got != v {
			t.Fatalf("round trip %d -> %d", v, got)
		}
	})
}

func FuzzSignedGammaRoundTrip(f *testing.F) {
	for _, v := range []int64{0, -1, 1, -2, 2, 1 << 40, -(1 << 40), -9223372036854775808, 9223372036854775807} {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v int64) {
		if zigzag(v) == ^uint64(0) {
			return
		}
		buf, n := encodeOne(t, func(w *BitWriter) error { return WriteSignedGamma(w, v) })
		if n != SignedGammaLen(v) {
			t.Fatalf("SignedGammaLen(%d)=%d, wrote %d bits", v, SignedGammaLen(v), n)
		}
		r, err := NewBitReader(buf, n)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ReadSignedGamma(r)
		if err != nil {
			t.Fatal(err)
		}
		if got != v {
			t.Fatalf("round trip %d -> %d", v, got)
		}
	})
}

// FuzzSubsetRoundTrip derives a strictly increasing subset of [0, m) from
// the mask bits, then checks rank/unrank and the bit-exact WriteSubset /
// ReadSubset codec recover it.
func FuzzSubsetRoundTrip(f *testing.F) {
	f.Add(uint8(6), uint64(0b101001))
	f.Add(uint8(1), uint64(1))
	f.Add(uint8(48), ^uint64(0))
	f.Add(uint8(10), uint64(0))
	f.Fuzz(func(t *testing.T, m uint8, mask uint64) {
		if m > 48 {
			m = m % 49 // keep C(m, w) cheap
		}
		var subset []int
		for v := 0; v < int(m); v++ {
			if mask>>uint(v%64)&1 == 1 {
				subset = append(subset, v)
			}
		}
		rank, err := SubsetRank(int(m), subset)
		if err != nil {
			t.Fatal(err)
		}
		back, err := SubsetUnrank(int(m), len(subset), rank)
		if err != nil {
			t.Fatal(err)
		}
		if len(back) != len(subset) {
			t.Fatalf("unrank size %d, want %d", len(back), len(subset))
		}
		for i := range subset {
			if back[i] != subset[i] {
				t.Fatalf("unrank mismatch at %d: %v vs %v", i, back, subset)
			}
		}
		var w BitWriter
		if err := WriteSubset(&w, int(m), subset); err != nil {
			t.Fatal(err)
		}
		width, err := BinomialBitLen(int(m), len(subset))
		if err != nil {
			t.Fatal(err)
		}
		if w.Len() != width {
			t.Fatalf("WriteSubset used %d bits, budget is %d", w.Len(), width)
		}
		r, err := NewBitReader(w.Bytes(), w.Len())
		if err != nil {
			t.Fatal(err)
		}
		got, err := ReadSubset(r, int(m), len(subset))
		if err != nil {
			t.Fatal(err)
		}
		for i := range subset {
			if got[i] != subset[i] {
				t.Fatalf("codec mismatch at %d: %v vs %v", i, got, subset)
			}
		}
	})
}

// FuzzDecodeAdversarial feeds arbitrary bytes to every decoder. Decoders
// must either fail cleanly or return a value whose re-encoding reproduces
// exactly the bits they consumed (the codes are prefix-free bijections).
// The subset entry reads m and w as 9-bit fields, then a ReadSubsetFast
// rank of up to 8 words; a subset it accepts must also be strictly
// increasing in [0, m) and equal what the math/big coder decodes from the
// same bits.
func FuzzDecodeAdversarial(f *testing.F) {
	f.Add([]byte{0xff, 0x00, 0xa5})
	f.Add([]byte{0x00})
	f.Add([]byte{0b01011010, 0b11110000, 0x13, 0x37})
	// subset: m = 64, w = 16, then a 49-bit rank.
	f.Add([]byte{0x20, 0x04, 0x3f, 0xff, 0x12, 0x34, 0x56, 0x78, 0x9a})
	// subset: m = 511, w = 255, then a 507-bit rank (8 words) of all ones,
	// which is at least C(511,255).
	f.Add(append([]byte{0xff, 0xbf, 0xff}, bytes.Repeat([]byte{0xff}, 64)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		checks := []struct {
			name   string
			decode func(*BitReader) (func(*BitWriter) error, error)
		}{
			{"gamma", func(r *BitReader) (func(*BitWriter) error, error) {
				v, err := ReadEliasGamma(r)
				return func(w *BitWriter) error { return WriteEliasGamma(w, v) }, err
			}},
			{"signed", func(r *BitReader) (func(*BitWriter) error, error) {
				v, err := ReadSignedGamma(r)
				return func(w *BitWriter) error { return WriteSignedGamma(w, v) }, err
			}},
			{"subset", func(r *BitReader) (func(*BitWriter) error, error) {
				m, err := r.ReadBits(9)
				if err != nil {
					return nil, err
				}
				w, err := r.ReadBits(9)
				if err != nil {
					return nil, err
				}
				if w > m {
					return nil, fmt.Errorf("subset of size %d over universe %d", w, m)
				}
				start := r.Pos()
				s, err := ReadSubsetFast(r, int(m), int(w))
				if err != nil {
					return nil, err
				}
				checkDecodedSubset(t, data, start, int(m), s)
				return func(bw *BitWriter) error {
					if err := bw.WriteBits(m, 9); err != nil {
						return err
					}
					if err := bw.WriteBits(w, 9); err != nil {
						return err
					}
					return WriteSubsetFast(bw, int(m), s)
				}, nil
			}},
		}
		for _, c := range checks {
			r, err := NewBitReader(data, len(data)*8)
			if err != nil {
				t.Fatal(err)
			}
			reencode, err := c.decode(r)
			if err != nil {
				continue // clean failure on garbage is fine
			}
			var w BitWriter
			if err := reencode(&w); err != nil {
				t.Fatalf("%s: decoded value does not re-encode: %v", c.name, err)
			}
			consumed := len(data)*8 - r.Remaining()
			if w.Len() != consumed {
				t.Fatalf("%s: consumed %d bits but value re-encodes to %d", c.name, consumed, w.Len())
			}
			for i := 0; i < consumed; i++ {
				in := data[i/8] >> uint(7-i%8) & 1
				out := w.Bytes()[i/8] >> uint(7-i%8) & 1
				if in != out {
					t.Fatalf("%s: re-encoded bit %d differs", c.name, i)
				}
			}
		}
	})
}

// checkDecodedSubset requires a subset ReadSubsetFast accepted from the
// rank at bit start of data to be strictly increasing in [0, m) and to be
// the subset the math/big coder decodes from the same bits.
func checkDecodedSubset(t *testing.T, data []byte, start, m int, subset []int) {
	t.Helper()
	for i, v := range subset {
		if v < 0 || v >= m || (i > 0 && v <= subset[i-1]) {
			t.Fatalf("subset: decoded %v, not strictly increasing in [0,%d)", subset, m)
		}
	}
	r, err := NewBitReader(data, len(data)*8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadBits(start); err != nil {
		t.Fatal(err)
	}
	total := Binomial(m, len(subset))
	rank, err := readBigInt(r, ceilLog2(total))
	if err != nil {
		t.Fatal(err)
	}
	want, err := enumerativeUnrank(m, len(subset), rank, total)
	if err != nil {
		t.Fatalf("subset: ReadSubsetFast accepted rank %v, math/big rejects it: %v", rank, err)
	}
	if !equalInts(subset, want) {
		t.Fatalf("subset: ReadSubsetFast decoded %v, math/big %v", subset, want)
	}
}
