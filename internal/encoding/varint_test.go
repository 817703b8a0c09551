package encoding

import (
	"testing"
	"testing/quick"

	"broadcastic/internal/rng"
)

func roundTripGamma(t *testing.T, v uint64) {
	t.Helper()
	var w BitWriter
	if err := WriteEliasGamma(&w, v); err != nil {
		t.Fatalf("WriteEliasGamma(%d): %v", v, err)
	}
	if w.Len() != EliasGammaLen(v) {
		t.Fatalf("gamma length of %d = %d, want %d", v, w.Len(), EliasGammaLen(v))
	}
	r, _ := NewBitReader(w.Bytes(), w.Len())
	got, err := ReadEliasGamma(r)
	if err != nil {
		t.Fatalf("ReadEliasGamma(%d): %v", v, err)
	}
	if got != v {
		t.Fatalf("gamma roundtrip %d -> %d", v, got)
	}
	if r.Remaining() != 0 {
		t.Fatalf("gamma decode of %d left %d bits", v, r.Remaining())
	}
}

func TestEliasGammaKnown(t *testing.T) {
	// Known codeword lengths: 1→1, 2..3→3, 4..7→5.
	wantLens := map[uint64]int{1: 1, 2: 3, 3: 3, 4: 5, 7: 5, 8: 7}
	for v, want := range wantLens {
		if got := EliasGammaLen(v); got != want {
			t.Fatalf("EliasGammaLen(%d) = %d, want %d", v, got, want)
		}
		roundTripGamma(t, v)
	}
}

func TestEliasGammaRejectsZero(t *testing.T) {
	var w BitWriter
	if err := WriteEliasGamma(&w, 0); err == nil {
		t.Fatal("gamma of 0 succeeded")
	}
	if EliasGammaLen(0) != 0 {
		t.Fatal("EliasGammaLen(0) nonzero")
	}
}

func TestEliasGammaProperty(t *testing.T) {
	src := rng.New(71)
	check := func(shift uint8) bool {
		v := src.Uint64()>>(shift%63) | 1
		var w BitWriter
		if err := WriteEliasGamma(&w, v); err != nil {
			return false
		}
		r, _ := NewBitReader(w.Bytes(), w.Len())
		got, err := ReadEliasGamma(r)
		return err == nil && got == v && w.Len() == EliasGammaLen(v)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestNonNegRoundTrip(t *testing.T) {
	for _, v := range []uint64{0, 1, 2, 100, 1 << 30} {
		var w BitWriter
		if err := WriteNonNeg(&w, v); err != nil {
			t.Fatal(err)
		}
		if w.Len() != NonNegLen(v) {
			t.Fatalf("NonNegLen(%d) = %d, wrote %d", v, NonNegLen(v), w.Len())
		}
		r, _ := NewBitReader(w.Bytes(), w.Len())
		got, err := ReadNonNeg(r)
		if err != nil {
			t.Fatal(err)
		}
		if got != v {
			t.Fatalf("NonNeg roundtrip %d -> %d", v, got)
		}
	}
}

func TestSignedGammaRoundTrip(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 2, -2, 1000, -1000, 1 << 40, -(1 << 40)} {
		var w BitWriter
		if err := WriteSignedGamma(&w, v); err != nil {
			t.Fatal(err)
		}
		if w.Len() != SignedGammaLen(v) {
			t.Fatalf("SignedGammaLen(%d) = %d, wrote %d", v, SignedGammaLen(v), w.Len())
		}
		r, _ := NewBitReader(w.Bytes(), w.Len())
		got, err := ReadSignedGamma(r)
		if err != nil {
			t.Fatal(err)
		}
		if got != v {
			t.Fatalf("signed roundtrip %d -> %d", v, got)
		}
	}
}

func TestZigzagProperty(t *testing.T) {
	check := func(v int64) bool { return unzigzag(zigzag(v)) == v }
	if err := quick.Check(check, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestFixedWidth(t *testing.T) {
	cases := map[uint64]int{0: 0, 1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 1024: 10, 1025: 11}
	for size, want := range cases {
		if got := FixedWidth(size); got != want {
			t.Fatalf("FixedWidth(%d) = %d, want %d", size, got, want)
		}
	}
}

func TestSelfDelimitingConcatenation(t *testing.T) {
	// Several values written back-to-back decode unambiguously: the whole
	// point of prefix-free codes for blackboard messages.
	vals := []uint64{1, 5, 2, 1000, 3}
	var w BitWriter
	for _, v := range vals {
		if err := WriteEliasGamma(&w, v); err != nil {
			t.Fatal(err)
		}
	}
	r, _ := NewBitReader(w.Bytes(), w.Len())
	for i, want := range vals {
		got, err := ReadEliasGamma(r)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("value %d decoded as %d, want %d", i, got, want)
		}
	}
	if r.Remaining() != 0 {
		t.Fatalf("%d bits left over", r.Remaining())
	}
}

// ReadSignedGamma decodes a signed value written with WriteSignedGamma.
func ReadSignedGamma(r *BitReader) (int64, error) {
	u, err := ReadNonNeg(r)
	if err != nil {
		return 0, err
	}
	return unzigzag(u), nil
}

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }
