package rng

import "testing"

// TestSkipMatchesDraws pins the compiled-IR executor's draw-alignment
// primitive: Skip(n) must leave the stream exactly where n Uint64 calls
// would have, and DrawsSince must count the skipped outputs as drawn.
func TestSkipMatchesDraws(t *testing.T) {
	for _, n := range []uint64{0, 1, 5, 64, 4096} {
		a, b := New(123), New(123)
		mark := a.Mark()
		a.Skip(n)
		for i := uint64(0); i < n; i++ {
			b.Uint64()
		}
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("Skip(%d): next output %#x, want %#x", n, got, want)
		}
		if got := a.DrawsSince(mark); got != n+1 {
			t.Fatalf("Skip(%d): DrawsSince reports %d draws, want %d", n, got, n+1)
		}
	}
}

// TestLookaheadMatchesUint64 pins the compiled-IR executor's lazy-draw
// primitive: Lookahead(j) must equal the j-th upcoming Uint64 output,
// without moving the stream position.
func TestLookaheadMatchesUint64(t *testing.T) {
	a, b := New(77), New(77)
	mark := a.Mark()
	peeked := make([]uint64, 20)
	for j := range peeked {
		peeked[j] = a.Lookahead(uint64(j))
	}
	if got := a.DrawsSince(mark); got != 0 {
		t.Fatalf("Lookahead advanced the stream by %d draws, want 0", got)
	}
	for j, want := range peeked {
		if got := b.Uint64(); got != want {
			t.Fatalf("Lookahead(%d) = %#x, but draw %d is %#x", j, want, j, got)
		}
	}
	// Lookahead then Skip reconciles with sequential draws.
	a.Skip(20)
	if got, want := a.Uint64(), b.Uint64(); got != want {
		t.Fatalf("after Skip(20): next output %#x, want %#x", got, want)
	}
}

// TestU01MatchesFloat64 pins that U01 is the exact raw-output-to-uniform
// mapping of Float64, so prefetching with Uint64s and converting through
// U01 reproduces a Float64 sequence bit for bit.
func TestU01MatchesFloat64(t *testing.T) {
	a, b := New(9), New(9)
	raw := make([]uint64, 100)
	b.Uint64s(raw)
	for i, w := range raw {
		if got, want := U01(w), a.Float64(); got != want {
			t.Fatalf("draw %d: U01 %v != Float64 %v", i, got, want)
		}
	}
	if got := U01(^uint64(0)); got >= 1 {
		t.Fatalf("U01 of all-ones word is %v, want < 1", got)
	}
	if got := U01(0); got != 0 {
		t.Fatalf("U01(0) = %v, want 0", got)
	}
}
