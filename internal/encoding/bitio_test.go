package encoding

import (
	"testing"
	"testing/quick"

	"broadcastic/internal/rng"
)

func TestBitWriterReaderRoundTrip(t *testing.T) {
	var w BitWriter
	pattern := []int{1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1}
	for _, b := range pattern {
		if err := w.WriteBit(b); err != nil {
			t.Fatal(err)
		}
	}
	if w.Len() != len(pattern) {
		t.Fatalf("Len = %d, want %d", w.Len(), len(pattern))
	}
	r, err := NewBitReader(w.Bytes(), w.Len())
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range pattern {
		got, err := r.ReadBit()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("bit %d = %d, want %d", i, got, want)
		}
	}
	if _, err := r.ReadBit(); err == nil {
		t.Fatal("read past end succeeded")
	}
}

func TestWriteBitRejectsInvalid(t *testing.T) {
	var w BitWriter
	if err := w.WriteBit(2); err == nil {
		t.Fatal("WriteBit(2) succeeded")
	}
}

func TestWriteBitsWidthValidation(t *testing.T) {
	var w BitWriter
	if err := w.WriteBits(4, 2); err == nil {
		t.Fatal("value 4 in 2 bits succeeded")
	}
	if err := w.WriteBits(1, 65); err == nil {
		t.Fatal("width 65 succeeded")
	}
	if err := w.WriteBits(1, -1); err == nil {
		t.Fatal("negative width succeeded")
	}
	if err := w.WriteBits(0, 0); err != nil {
		t.Fatalf("zero-width write failed: %v", err)
	}
}

func TestWriteReadBitsProperty(t *testing.T) {
	src := rng.New(61)
	check := func(widthRaw uint8) bool {
		width := int(widthRaw%64) + 1
		v := src.Uint64()
		if width < 64 {
			v &= (1 << uint(width)) - 1
		}
		var w BitWriter
		if err := w.WriteBits(v, width); err != nil {
			return false
		}
		if w.Len() != width {
			return false
		}
		r, err := NewBitReader(w.Bytes(), w.Len())
		if err != nil {
			return false
		}
		got, err := r.ReadBits(width)
		return err == nil && got == v
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestNewBitReaderValidation(t *testing.T) {
	if _, err := NewBitReader([]byte{0}, 9); err == nil {
		t.Fatal("bit count beyond buffer succeeded")
	}
	if _, err := NewBitReader(nil, -1); err == nil {
		t.Fatal("negative bit count succeeded")
	}
}

func TestReaderPosRemaining(t *testing.T) {
	var w BitWriter
	_ = w.WriteBits(0b1011, 4)
	r, _ := NewBitReader(w.Bytes(), 4)
	if r.Remaining() != 4 || r.Pos() != 0 {
		t.Fatalf("fresh reader pos=%d remaining=%d", r.Pos(), r.Remaining())
	}
	_, _ = r.ReadBit()
	if r.Remaining() != 3 || r.Pos() != 1 {
		t.Fatalf("after one read pos=%d remaining=%d", r.Pos(), r.Remaining())
	}
}

func TestBytesIsCopy(t *testing.T) {
	var w BitWriter
	_ = w.WriteBits(0xff, 8)
	b := w.Bytes()
	b[0] = 0
	if w.Bytes()[0] != 0xff {
		t.Fatal("Bytes exposed internal buffer")
	}
}

func TestMixedWrites(t *testing.T) {
	var w BitWriter
	_ = w.WriteBit(1)
	_ = w.WriteBits(0b0110, 4)
	_ = w.WriteBit(1)
	r, _ := NewBitReader(w.Bytes(), w.Len())
	v, err := r.ReadBits(6)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0b101101 {
		t.Fatalf("mixed write read back %06b", v)
	}
}

// Pos returns the number of bits consumed so far.
func (r *BitReader) Pos() int { return r.pos }
