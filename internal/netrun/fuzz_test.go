package netrun

import (
	"bytes"
	"testing"

	"broadcastic/internal/blackboard"
)

// The decoders below parse bytes that arrive from other processes over
// the TCP transport. Each fuzz target holds them to the round-trip oracle:
// whatever decodes must re-encode to exactly the input bytes. Because a
// value that overflows int can re-encode to its own bytes through a
// negative int, the targets also require every decoded value to be
// non-negative.

func FuzzParseFrame(f *testing.F) {
	f.Add(packFrame(frameMsg, 7, []byte{0xde, 0xad, 0xbe, 0xef}))
	f.Add(packFrame(frameAck, 1, nil))
	f.Add(packFrame(frameRouted, 3, encodeRoutedPayload(300, 2, frameSync, []byte{0x00, 0x01, 0x80})))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, frame []byte) {
		kind, seq, payload, ok := parseFrame(frame)
		if !ok {
			return
		}
		if got := packFrame(kind, seq, payload); !bytes.Equal(got, frame) {
			t.Fatalf("parseFrame(%x) re-packs as %x", frame, got)
		}
	})
}

func FuzzDecodeRoutedPayload(f *testing.F) {
	f.Add(encodeRoutedPayload(4, 2, frameSync, []byte{0x00, 0x01, 0x80}), 4)
	f.Add(encodeRoutedPayload(300, 128, frameErr, []byte("boom")), 300)
	f.Add(encodeRoutedPayload(1, 9, frameTurn, []byte{0x03}), 4)
	f.Add([]byte{0x80, 0x00, 0x01, frameTurn}, 4)
	f.Fuzz(func(t *testing.T, p []byte, maxNode int) {
		src, dst, kind, payload, err := decodeRoutedPayload(p, maxNode)
		if err != nil {
			return
		}
		if src < 0 || dst < 0 || src > maxNode || dst > maxNode {
			t.Fatalf("decodeRoutedPayload(%x, %d) names nodes %d->%d", p, maxNode, src, dst)
		}
		if got := encodeRoutedPayload(src, dst, kind, payload); !bytes.Equal(got, p) {
			t.Fatalf("decodeRoutedPayload(%x) re-encodes as %x", p, got)
		}
	})
}

func FuzzDecodeIndexedSync(f *testing.F) {
	f.Add(encodeIndexedSync(0, blackboard.Message{Player: 1, Bits: []byte{0x80}, Len: 1}))
	f.Add(encodeIndexedSync(300, blackboard.Message{Player: 299, Bits: []byte{0xff, 0xc0}, Len: 10}))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0x00, 0x00})
	f.Fuzz(func(t *testing.T, p []byte) {
		idx, msg, err := decodeIndexedSync(p)
		if err != nil {
			return
		}
		if idx < 0 || msg.Player < 0 || msg.Len < 0 {
			t.Fatalf("decodeIndexedSync(%x) = %d, %+v", p, idx, msg)
		}
		if got := encodeIndexedSync(idx, msg); !bytes.Equal(got, p) {
			t.Fatalf("decodeIndexedSync(%x) re-encodes as %x", p, got)
		}
	})
}

func FuzzDecodeTurnPayload(f *testing.F) {
	f.Add(encodeTurnPayload(0))
	f.Add(encodeTurnPayload(42))
	f.Add(encodeTurnPayload(1 << 40))
	f.Add([]byte{5, 0xff})
	f.Fuzz(func(t *testing.T, p []byte) {
		n, err := decodeTurnPayload(p)
		if err != nil {
			return
		}
		if n < 0 {
			t.Fatalf("decodeTurnPayload(%x) = %d", p, n)
		}
		if got := encodeTurnPayload(n); !bytes.Equal(got, p) {
			t.Fatalf("decodeTurnPayload(%x) re-encodes as %x", p, got)
		}
	})
}

func FuzzDecodeMessagePayload(f *testing.F) {
	f.Add(encodeMessagePayload(blackboard.Message{Player: 0, Bits: []byte{0b10110000}, Len: 4}))
	f.Add(encodeMessagePayload(blackboard.Message{Player: 3, Bits: []byte{0xff, 0x80}, Len: 9}))
	f.Add(encodeMessagePayload(blackboard.Message{Player: 1}))
	f.Add([]byte{0x00, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, p []byte) {
		msg, err := decodeMessagePayload(p)
		if err != nil {
			return
		}
		if msg.Player < 0 || msg.Len < 0 {
			t.Fatalf("decodeMessagePayload(%x) = %+v", p, msg)
		}
		if got := encodeMessagePayload(msg); !bytes.Equal(got, p) {
			t.Fatalf("decodeMessagePayload(%x) re-encodes as %x", p, got)
		}
	})
}
