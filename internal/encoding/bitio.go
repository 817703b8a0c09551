// Package encoding implements the bit-exact codes the protocols are charged
// for: a bit-level writer/reader, Elias gamma prefix codes (used by the
// Lemma 7 sampler's variable-length fields), fixed-width integers, the
// enumerative code for a w-subset of an m-set in ⌈log2 C(m,w)⌉ bits (the
// batch encoding of the Section 5 protocol, whose arithmetic runs on
// machine words with math/bits). The decoders and codes no protocol writes
// live in the package's tests, as the round-trip oracles of the encoders
// here; so do the math/big subset coders the word kernel is checked
// against bit for bit.
//
// Communication complexity in the paper is counted in bits written on the
// blackboard, so every encoder here reports exact bit lengths.
package encoding

import (
	"fmt"
)

// BitWriter accumulates bits most-significant-first into a byte buffer.
// The zero value is ready to use.
type BitWriter struct {
	buf  []byte
	nbit int
}

// WriteBit appends a single bit (0 or 1).
func (w *BitWriter) WriteBit(b int) error {
	if b != 0 && b != 1 {
		return fmt.Errorf("encoding: bit value %d", b)
	}
	if w.nbit%8 == 0 {
		w.buf = append(w.buf, 0)
	}
	if b == 1 {
		w.buf[w.nbit/8] |= 1 << uint(7-w.nbit%8)
	}
	w.nbit++
	return nil
}

// WriteBits appends the low `width` bits of v, most significant first.
func (w *BitWriter) WriteBits(v uint64, width int) error {
	if width < 0 || width > 64 {
		return fmt.Errorf("encoding: bit width %d outside [0,64]", width)
	}
	if width < 64 && v>>uint(width) != 0 {
		return fmt.Errorf("encoding: value %d does not fit in %d bits", v, width)
	}
	// Fill the last byte's free bits, then whole bytes, top bits first.
	for width > 0 {
		if w.nbit%8 == 0 {
			w.buf = append(w.buf, 0)
		}
		free := 8 - w.nbit%8
		n := min(free, width)
		width -= n
		w.buf[len(w.buf)-1] |= byte((v>>uint(width))&(1<<uint(n)-1)) << uint(free-n)
		w.nbit += n
	}
	return nil
}

// Len returns the number of bits written so far.
func (w *BitWriter) Len() int { return w.nbit }

// Reset clears the writer for reuse, keeping the buffer capacity so a
// reused writer allocates nothing once it has grown to its working size.
func (w *BitWriter) Reset() {
	w.buf = w.buf[:0]
	w.nbit = 0
}

// AppendTo appends the packed bytes (final byte zero-padded) to dst and
// returns the result: the allocation-free counterpart of Bytes for callers
// that own a scratch buffer.
func (w *BitWriter) AppendTo(dst []byte) []byte {
	return append(dst, w.buf...)
}

// Bytes returns the written bits packed into bytes (the final byte is
// zero-padded). The returned slice is a copy.
func (w *BitWriter) Bytes() []byte {
	out := make([]byte, len(w.buf))
	copy(out, w.buf)
	return out
}

// BitReader consumes bits most-significant-first from a byte buffer.
type BitReader struct {
	buf  []byte
	nbit int // total readable bits
	pos  int
}

// NewBitReader reads up to nbit bits from buf.
func NewBitReader(buf []byte, nbit int) (*BitReader, error) {
	if nbit < 0 || nbit > len(buf)*8 {
		return nil, fmt.Errorf("encoding: bit count %d exceeds buffer of %d bits", nbit, len(buf)*8)
	}
	return &BitReader{buf: buf, nbit: nbit}, nil
}

// ReadBit returns the next bit.
func (r *BitReader) ReadBit() (int, error) {
	if r.pos >= r.nbit {
		return 0, fmt.Errorf("encoding: read past end of bit stream (pos %d of %d)", r.pos, r.nbit)
	}
	b := int(r.buf[r.pos/8]>>uint(7-r.pos%8)) & 1
	r.pos++
	return b, nil
}

// ReadBits returns the next `width` bits as an integer, MSB first.
func (r *BitReader) ReadBits(width int) (uint64, error) {
	if width < 0 || width > 64 {
		return 0, fmt.Errorf("encoding: bit width %d outside [0,64]", width)
	}
	if width > r.nbit-r.pos {
		r.pos = r.nbit
		return 0, fmt.Errorf("encoding: read past end of bit stream (pos %d of %d)", r.pos, r.nbit)
	}
	// Take the rest of the current byte, then whole bytes, top bits first.
	var v uint64
	for width > 0 {
		avail := 8 - r.pos%8
		n := min(avail, width)
		width -= n
		v = v<<uint(n) | uint64(r.buf[r.pos/8]>>uint(avail-n))&(1<<uint(n)-1)
		r.pos += n
	}
	return v, nil
}

// Remaining returns the number of unread bits.
func (r *BitReader) Remaining() int { return r.nbit - r.pos }
