// Package andk implements protocols for the single-bit AND_k problem, the
// building block of the paper's lower bound (Section 4.1) and of its
// information-vs-communication gap (Section 6).
//
// The protocols provided:
//
//   - Sequential: the paper's Section 6 protocol — players write their bit
//     in order, halting at the first 0. Its transcript can be encoded by
//     the index of the first zero-writer, so its external information cost
//     is O(log k) under any distribution, while its worst-case
//     communication is k. This is the witness for the Ω(k/log k) gap.
//   - BroadcastAll: every player writes its bit regardless. Reveals the
//     entire input; a natural upper-baseline for information cost.
//   - Lazy: before the sequential protocol starts, player 0 "throws its
//     hands up" with probability δ and the protocol halts with a fixed
//     output. This realizes the paper's remark that a protocol may waste ε
//     probability on transcripts that point to no player, and exercises the
//     error side of the Lemma 5 analysis.
//
// All types implement core.Spec, so the information-cost engine can
// enumerate or sample them directly. Sequential and BroadcastAll also
// name their sufficient prefix state (StateKey), which lets the compiled
// estimator run them in O(k) states at any k; Lazy's opening coin makes
// it compile as a plain transcript tree. The m-speaker Truncated protocol
// of the Lemma 6 tests lives in andk/andktest.
package andk

import (
	"fmt"
	"math"
	"strconv"

	"broadcastic/internal/core"
	"broadcastic/internal/prob"
)

// Cached point masses on {0, 1}: MessageDist sits on the Monte-Carlo hot
// path and prob.Dist values are immutable, so sharing them is safe.
var (
	pointBit0 = mustPoint(0)
	pointBit1 = mustPoint(1)
)

func mustPoint(x int) prob.Dist {
	d, err := prob.Point(2, x)
	if err != nil {
		panic(err) // unreachable: static, known-good arguments
	}
	return d
}

// bitDist returns the deterministic one-bit announcement distribution.
func bitDist(input int) (prob.Dist, error) {
	switch input {
	case 0:
		return pointBit0, nil
	case 1:
		return pointBit1, nil
	default:
		return prob.Dist{}, fmt.Errorf("andk: non-binary input %d", input)
	}
}

// Sequential is the early-stopping AND_k protocol.
type Sequential struct {
	k int
}

// NewSequential returns the sequential AND_k protocol for k >= 1 players.
func NewSequential(k int) (*Sequential, error) {
	if k < 1 {
		return nil, fmt.Errorf("andk: k must be >= 1, got %d", k)
	}
	return &Sequential{k: k}, nil
}

// NumPlayers implements core.Spec.
func (s *Sequential) NumPlayers() int { return s.k }

// InputSize implements core.Spec.
func (s *Sequential) InputSize() int { return 2 }

// NextSpeaker implements core.Spec: player len(t) speaks, until a 0 is
// written or all players have spoken.
func (s *Sequential) NextSpeaker(t core.Transcript) (int, bool, error) {
	if len(t) > s.k {
		return 0, false, fmt.Errorf("andk: transcript of length %d exceeds %d players", len(t), s.k)
	}
	if len(t) > 0 && t[len(t)-1] == 0 {
		return 0, true, nil
	}
	if len(t) == s.k {
		return 0, true, nil
	}
	return len(t), false, nil
}

// MessageAlphabet implements core.Spec: messages are single bits.
func (s *Sequential) MessageAlphabet(t core.Transcript) (int, error) { return 2, nil }

// MessageDist implements core.Spec: each player deterministically writes
// its own input bit.
func (s *Sequential) MessageDist(t core.Transcript, player, input int) (prob.Dist, error) {
	return bitDist(input)
}

// MessageBits implements core.Spec: one bit per message.
func (s *Sequential) MessageBits(t core.Transcript, symbol int) (int, error) {
	if symbol != 0 && symbol != 1 {
		return 0, fmt.Errorf("andk: invalid symbol %d", symbol)
	}
	return 1, nil
}

// Output implements core.Spec: 1 iff every written bit is 1 and all k
// players spoke.
func (s *Sequential) Output(t core.Transcript) (int, error) {
	if len(t) == 0 {
		return 0, fmt.Errorf("andk: output of empty transcript")
	}
	if t[len(t)-1] == 0 {
		return 0, nil
	}
	if len(t) != s.k {
		return 0, fmt.Errorf("andk: transcript of length %d is not final", len(t))
	}
	return 1, nil
}

// IRKey names the protocol for the compiled-IR program cache (see
// internal/ir.Keyer): behavior is fully determined by k.
func (s *Sequential) IRKey() string { return "andk.seq/" + strconv.Itoa(s.k) }

// StateKey implements ir.StateKeyer: a reachable prefix's continuation
// depends only on its length and on whether a 0 has been written, so the
// compiled estimator has one state per length.
func (s *Sequential) StateKey(t []int) uint64 { return zeroWritten(t) }

// zeroWritten is the sufficient state shared by the AND_k protocols here:
// 1 once some player has written a 0, else 0.
func zeroWritten(t []int) uint64 {
	for _, bit := range t {
		if bit == 0 {
			return 1
		}
	}
	return 0
}

var _ core.Spec = (*Sequential)(nil)

// BroadcastAll is the protocol in which every player writes its bit.
type BroadcastAll struct {
	k int
}

// NewBroadcastAll returns the all-speak AND_k protocol.
func NewBroadcastAll(k int) (*BroadcastAll, error) {
	if k < 1 {
		return nil, fmt.Errorf("andk: k must be >= 1, got %d", k)
	}
	return &BroadcastAll{k: k}, nil
}

// NumPlayers implements core.Spec.
func (b *BroadcastAll) NumPlayers() int { return b.k }

// InputSize implements core.Spec.
func (b *BroadcastAll) InputSize() int { return 2 }

// NextSpeaker implements core.Spec.
func (b *BroadcastAll) NextSpeaker(t core.Transcript) (int, bool, error) {
	if len(t) >= b.k {
		return 0, true, nil
	}
	return len(t), false, nil
}

// MessageAlphabet implements core.Spec.
func (b *BroadcastAll) MessageAlphabet(t core.Transcript) (int, error) { return 2, nil }

// MessageDist implements core.Spec.
func (b *BroadcastAll) MessageDist(t core.Transcript, player, input int) (prob.Dist, error) {
	return bitDist(input)
}

// MessageBits implements core.Spec.
func (b *BroadcastAll) MessageBits(t core.Transcript, symbol int) (int, error) { return 1, nil }

// Output implements core.Spec.
func (b *BroadcastAll) Output(t core.Transcript) (int, error) {
	if len(t) != b.k {
		return 0, fmt.Errorf("andk: transcript length %d, want %d", len(t), b.k)
	}
	for _, bit := range t {
		if bit == 0 {
			return 0, nil
		}
	}
	return 1, nil
}

// IRKey names the protocol for the compiled-IR program cache.
func (b *BroadcastAll) IRKey() string { return "andk.all/" + strconv.Itoa(b.k) }

// StateKey implements ir.StateKeyer: the output depends only on whether
// a 0 has been written, so the compiled estimator has at most two states
// per length.
func (b *BroadcastAll) StateKey(t []int) uint64 { return zeroWritten(t) }

var _ core.Spec = (*BroadcastAll)(nil)

// Lazy wraps the sequential protocol with an initial give-up move: player 0
// first writes a coin that comes up "give up" with probability delta, in
// which case the protocol halts immediately with the fixed GiveUpOutput.
type Lazy struct {
	k            int
	delta        float64
	giveUpOutput int
	coin         prob.Dist // Bernoulli(delta), cached
}

// NewLazy returns the lazy protocol; delta in [0, 1), giveUpOutput in {0,1}.
func NewLazy(k int, delta float64, giveUpOutput int) (*Lazy, error) {
	if k < 1 {
		return nil, fmt.Errorf("andk: k must be >= 1, got %d", k)
	}
	if delta < 0 || delta >= 1 {
		return nil, fmt.Errorf("andk: delta = %v outside [0,1)", delta)
	}
	if giveUpOutput != 0 && giveUpOutput != 1 {
		return nil, fmt.Errorf("andk: giveUpOutput must be 0 or 1, got %d", giveUpOutput)
	}
	coin, err := prob.Bernoulli(delta)
	if err != nil {
		return nil, err
	}
	return &Lazy{k: k, delta: delta, giveUpOutput: giveUpOutput, coin: coin}, nil
}

// Transcript layout: symbol 0 of the run is the coin (0 = proceed,
// 1 = give up); afterwards the sequential protocol runs shifted by one.

// NumPlayers implements core.Spec.
func (l *Lazy) NumPlayers() int { return l.k }

// InputSize implements core.Spec.
func (l *Lazy) InputSize() int { return 2 }

// NextSpeaker implements core.Spec.
func (l *Lazy) NextSpeaker(t core.Transcript) (int, bool, error) {
	if len(t) == 0 {
		return 0, false, nil // the coin flip, by player 0
	}
	if t[0] == 1 {
		return 0, true, nil // gave up
	}
	rest := t[1:]
	if len(rest) > 0 && rest[len(rest)-1] == 0 {
		return 0, true, nil
	}
	if len(rest) == l.k {
		return 0, true, nil
	}
	return len(rest), false, nil
}

// MessageAlphabet implements core.Spec.
func (l *Lazy) MessageAlphabet(t core.Transcript) (int, error) { return 2, nil }

// MessageDist implements core.Spec.
func (l *Lazy) MessageDist(t core.Transcript, player, input int) (prob.Dist, error) {
	if input != 0 && input != 1 {
		return prob.Dist{}, fmt.Errorf("andk: non-binary input %d", input)
	}
	if len(t) == 0 {
		// The coin: independent of the input (pure private randomness).
		return l.coin, nil
	}
	return bitDist(input)
}

// MessageBits implements core.Spec.
func (l *Lazy) MessageBits(t core.Transcript, symbol int) (int, error) { return 1, nil }

// Output implements core.Spec.
func (l *Lazy) Output(t core.Transcript) (int, error) {
	if len(t) == 0 {
		return 0, fmt.Errorf("andk: output of empty transcript")
	}
	if t[0] == 1 {
		return l.giveUpOutput, nil
	}
	rest := t[1:]
	if len(rest) == 0 {
		return 0, fmt.Errorf("andk: lazy transcript not final")
	}
	if rest[len(rest)-1] == 0 {
		return 0, nil
	}
	if len(rest) != l.k {
		return 0, fmt.Errorf("andk: lazy transcript not final")
	}
	return 1, nil
}

// IRKey names the protocol for the compiled-IR program cache. delta
// enters as its exact float64 bit pattern: two Lazy specs share a program
// only when their coins are bit-identical.
func (l *Lazy) IRKey() string {
	return "andk.lazy/" + strconv.Itoa(l.k) + "," +
		strconv.FormatUint(math.Float64bits(l.delta), 16) + "," +
		strconv.Itoa(l.giveUpOutput)
}

var _ core.Spec = (*Lazy)(nil)
