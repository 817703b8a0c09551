package encoding

import (
	"fmt"
	"math"
	"testing"

	"broadcastic/internal/info"
	"broadcastic/internal/prob"
	"broadcastic/internal/prob/probtest"
	"broadcastic/internal/rng"
)

func TestHuffmanUniform(t *testing.T) {
	d, _ := probtest.Uniform(4)
	c, err := NewHuffman(d)
	if err != nil {
		t.Fatal(err)
	}
	for x := 0; x < 4; x++ {
		if c.Len(x) != 2 {
			t.Fatalf("uniform-4 code length of %d = %d, want 2", x, c.Len(x))
		}
	}
	e, err := c.ExpectedLength(d)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e-2) > 1e-12 {
		t.Fatalf("expected length = %v", e)
	}
}

func TestHuffmanSkewed(t *testing.T) {
	// p = (0.5, 0.25, 0.125, 0.125): dyadic, so Huffman hits entropy
	// exactly: lengths 1,2,3,3, expected length = H = 1.75.
	d, _ := prob.NewDist([]float64{0.5, 0.25, 0.125, 0.125})
	c, err := NewHuffman(d)
	if err != nil {
		t.Fatal(err)
	}
	wantLens := []int{1, 2, 3, 3}
	for x, want := range wantLens {
		if c.Len(x) != want {
			t.Fatalf("length of %d = %d, want %d", x, c.Len(x), want)
		}
	}
	e, _ := c.ExpectedLength(d)
	if math.Abs(e-info.Entropy(d)) > 1e-12 {
		t.Fatalf("dyadic expected length %v != entropy %v", e, info.Entropy(d))
	}
}

func TestHuffmanWithinOneBitOfEntropy(t *testing.T) {
	src := rng.New(91)
	for trial := 0; trial < 50; trial++ {
		n := src.Intn(14) + 2
		w := make([]float64, n)
		for i := range w {
			w[i] = src.Float64() + 1e-6
		}
		d, err := prob.Normalize(w)
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewHuffman(d)
		if err != nil {
			t.Fatal(err)
		}
		e, err := c.ExpectedLength(d)
		if err != nil {
			t.Fatal(err)
		}
		h := info.Entropy(d)
		if e < h-1e-9 || e >= h+1 {
			t.Fatalf("expected length %v outside [H, H+1) for H=%v", e, h)
		}
	}
}

func TestHuffmanSingleSymbol(t *testing.T) {
	d, _ := prob.Point(3, 1)
	c, err := NewHuffman(d)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len(1) != 1 {
		t.Fatalf("single-symbol code length = %d, want 1", c.Len(1))
	}
	var w BitWriter
	if err := c.Encode(&w, 1); err != nil {
		t.Fatal(err)
	}
	r, _ := NewBitReader(w.Bytes(), w.Len())
	got, err := c.Decode(r)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("decoded %d", got)
	}
}

func TestHuffmanEncodeDecodeStream(t *testing.T) {
	src := rng.New(92)
	d, _ := prob.NewDist([]float64{0.4, 0.3, 0.2, 0.1})
	c, err := NewHuffman(d)
	if err != nil {
		t.Fatal(err)
	}
	var w BitWriter
	const n = 200
	symbols := make([]int, n)
	for i := range symbols {
		symbols[i] = d.Sample(src)
		if err := c.Encode(&w, symbols[i]); err != nil {
			t.Fatal(err)
		}
	}
	r, _ := NewBitReader(w.Bytes(), w.Len())
	for i, want := range symbols {
		got, err := c.Decode(r)
		if err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("symbol %d decoded as %d, want %d", i, got, want)
		}
	}
	if r.Remaining() != 0 {
		t.Fatalf("%d bits left over", r.Remaining())
	}
}

func TestHuffmanEncodeInvalidSymbol(t *testing.T) {
	d, _ := prob.NewDist([]float64{0.5, 0.5, 0})
	c, err := NewHuffman(d)
	if err != nil {
		t.Fatal(err)
	}
	var w BitWriter
	if err := c.Encode(&w, 2); err == nil {
		t.Fatal("encoding zero-probability symbol succeeded")
	}
	if err := c.Encode(&w, 5); err == nil {
		t.Fatal("encoding out-of-range symbol succeeded")
	}
}

func TestHuffmanExpectedLengthValidation(t *testing.T) {
	d, _ := probtest.Uniform(2)
	c, err := NewHuffman(d)
	if err != nil {
		t.Fatal(err)
	}
	e3, _ := probtest.Uniform(3)
	if _, err := c.ExpectedLength(e3); err == nil {
		t.Fatal("mismatched support size succeeded")
	}
	// Positive-probability symbol without codeword: build code on a
	// restricted distribution, evaluate on a fuller one.
	restricted, _ := prob.NewDist([]float64{1, 0})
	cr, err := NewHuffman(restricted)
	if err != nil {
		t.Fatal(err)
	}
	full, _ := probtest.Uniform(2)
	if _, err := cr.ExpectedLength(full); err == nil {
		t.Fatal("missing codeword for positive-probability symbol succeeded")
	}
}

func TestHuffmanDecodeTruncated(t *testing.T) {
	d, _ := prob.NewDist([]float64{0.5, 0.25, 0.25})
	c, err := NewHuffman(d)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := NewBitReader(nil, 0)
	if _, err := c.Decode(r); err == nil {
		t.Fatal("decode from empty stream succeeded")
	}
}

// Len returns the codeword length of symbol x (0 if x has no codeword).
func (c *HuffmanCode) Len(x int) int {
	if x < 0 || x >= len(c.lengths) {
		return 0
	}
	return c.lengths[x]
}

// Encode appends the codeword of x to w.
func (c *HuffmanCode) Encode(w *BitWriter, x int) error {
	if x < 0 || x >= len(c.lengths) || c.lengths[x] == 0 {
		return fmt.Errorf("encoding: symbol %d has no codeword", x)
	}
	return w.WriteBits(c.codes[x], c.lengths[x])
}

// Decode reads one codeword from r and returns the symbol.
func (c *HuffmanCode) Decode(r *BitReader) (int, error) {
	var acc uint64
	depth := 0
	for {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		acc = acc<<1 | uint64(b)
		depth++
		if depth > 64 {
			return 0, fmt.Errorf("encoding: Huffman decode depth overflow")
		}
		for s, l := range c.lengths {
			if l == depth && c.codes[s] == acc {
				return s, nil
			}
		}
	}
}
