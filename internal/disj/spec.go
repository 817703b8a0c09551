package disj

import (
	"fmt"
	"strconv"

	"broadcastic/internal/core"
	"broadcastic/internal/prob"
)

// SequentialSpec is DISJ_{n,k} as a core.Spec for the direct-sum experiment
// (Lemma 1 / E5): the n coordinates are processed in order, each by the
// sequential AND_k sub-protocol — players announce their bit for the
// current coordinate until a 0 appears (the coordinate cannot be in the
// intersection) or all k bits are 1 (a common element: halt, output 0).
// Output 1 means disjoint. Inputs are n-bit vectors encoded as integers
// with coordinate j in bit j, matching dist.MuN.
//
// Its conditional information cost under μ^n, divided by n, is compared
// against the cost of one AND_k copy under μ.
type SequentialSpec struct {
	n, k int
}

// NewSequentialSpec returns the per-coordinate sequential DISJ spec; the
// exact engine needs 2^n input values per player, so n is capped at 16.
func NewSequentialSpec(n, k int) (*SequentialSpec, error) {
	if n < 1 || n > 16 {
		return nil, fmt.Errorf("disj: spec coordinates %d outside [1,16]", n)
	}
	if k < 1 {
		return nil, fmt.Errorf("disj: spec players %d < 1", k)
	}
	return &SequentialSpec{n: n, k: k}, nil
}

// NumPlayers implements core.Spec.
func (s *SequentialSpec) NumPlayers() int { return s.k }

// InputSize implements core.Spec.
func (s *SequentialSpec) InputSize() int { return 1 << uint(s.n) }

// parse replays the transcript and returns the execution point: the current
// coordinate, the next speaker within it, and whether the protocol halted
// (with which output).
func (s *SequentialSpec) parse(t core.Transcript) (coord, speaker int, done bool, output int, err error) {
	pos := 0
	for coord = 0; coord < s.n; coord++ {
		ones := 0
		for {
			if pos == len(t) {
				return coord, ones, false, 0, nil
			}
			bit := t[pos]
			if bit != 0 && bit != 1 {
				return 0, 0, false, 0, fmt.Errorf("disj: invalid transcript symbol %d", bit)
			}
			pos++
			if bit == 0 {
				break // coordinate resolved: someone lacks it
			}
			ones++
			if ones == s.k {
				// All k players hold this coordinate: common element.
				if pos != len(t) {
					return 0, 0, false, 0, fmt.Errorf("disj: transcript continues past halt")
				}
				return coord, 0, true, 0, nil
			}
		}
	}
	if pos != len(t) {
		return 0, 0, false, 0, fmt.Errorf("disj: transcript continues past final coordinate")
	}
	return s.n, 0, true, 1, nil
}

// NextSpeaker implements core.Spec.
func (s *SequentialSpec) NextSpeaker(t core.Transcript) (int, bool, error) {
	_, speaker, done, _, err := s.parse(t)
	if err != nil {
		return 0, false, err
	}
	return speaker, done, nil
}

// MessageAlphabet implements core.Spec.
func (s *SequentialSpec) MessageAlphabet(t core.Transcript) (int, error) { return 2, nil }

// MessageDist implements core.Spec: the speaker deterministically announces
// its bit for the current coordinate.
func (s *SequentialSpec) MessageDist(t core.Transcript, player, input int) (prob.Dist, error) {
	if input < 0 || input >= s.InputSize() {
		return prob.Dist{}, fmt.Errorf("disj: input %d outside [0,%d)", input, s.InputSize())
	}
	coord, _, done, _, err := s.parse(t)
	if err != nil {
		return prob.Dist{}, err
	}
	if done {
		return prob.Dist{}, fmt.Errorf("disj: MessageDist after halt")
	}
	return prob.Point(2, input>>uint(coord)&1)
}

// MessageBits implements core.Spec.
func (s *SequentialSpec) MessageBits(t core.Transcript, symbol int) (int, error) {
	if symbol != 0 && symbol != 1 {
		return 0, fmt.Errorf("disj: invalid symbol %d", symbol)
	}
	return 1, nil
}

// Output implements core.Spec: 1 ⇔ disjoint.
func (s *SequentialSpec) Output(t core.Transcript) (int, error) {
	_, _, done, output, err := s.parse(t)
	if err != nil {
		return 0, err
	}
	if !done {
		return 0, fmt.Errorf("disj: output of non-final transcript")
	}
	return output, nil
}

// IRKey names the protocol for the compiled-IR program cache (see
// internal/ir.Keyer). Large n still keys fine — the compiler's input-size
// gate (2^n values per player) simply refuses, the refusal is cached, and
// the estimator keeps its dynamic path.
func (s *SequentialSpec) IRKey() string {
	return "disj.seq/" + strconv.Itoa(s.n) + "," + strconv.Itoa(s.k)
}

var _ core.Spec = (*SequentialSpec)(nil)
