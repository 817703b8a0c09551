// Package coretest holds the reference walks and oracles that tests of
// several packages check shipped code against: a single-transcript sampler,
// a blackboard bridge for any core.Spec, and worst-case error by exact
// enumeration. Only _test files import it, so it never ships in a binary.
package coretest

import (
	"fmt"
	"math"

	"broadcastic/internal/blackboard"
	"broadcastic/internal/core"
	"broadcastic/internal/encoding"
	"broadcastic/internal/rng"
)

// maxDepth is core's default transcript depth limit (core.TreeLimits).
const maxDepth = 4096

// SampleTranscript runs spec once on input x, drawing one uniform from src
// per message, and returns the transcript with its leaf: the q-factors
// q[i][v] = Π P(sym | v) over player i's turns, the bit cost and the
// output. It is the reference the estimator's sample loop and the
// compression layer are checked against.
func SampleTranscript(spec core.Spec, x []int, src *rng.Source) (core.Transcript, *core.Leaf, error) {
	if len(x) != spec.NumPlayers() {
		return nil, nil, fmt.Errorf("core: input has %d entries, want %d", len(x), spec.NumPlayers())
	}
	if src == nil {
		return nil, nil, fmt.Errorf("core: nil randomness source")
	}
	q := make([][]float64, spec.NumPlayers())
	for i := range q {
		q[i] = make([]float64, spec.InputSize())
		for v := range q[i] {
			q[i][v] = 1
		}
	}
	var t core.Transcript
	bits := 0
	for step := 0; ; step++ {
		if step > maxDepth {
			return nil, nil, fmt.Errorf("%w (%d)", core.ErrTreeDepth, maxDepth)
		}
		speaker, done, err := spec.NextSpeaker(t)
		if err != nil {
			return nil, nil, err
		}
		if done {
			out, err := spec.Output(t)
			if err != nil {
				return nil, nil, err
			}
			leafT := make(core.Transcript, len(t))
			copy(leafT, t)
			return t, &core.Leaf{Transcript: leafT, Q: q, Bits: bits, Output: out}, nil
		}
		trueDist, err := spec.MessageDist(t, speaker, x[speaker])
		if err != nil {
			return nil, nil, err
		}
		sym := trueDist.Sample(src)
		for v := range q[speaker] {
			d, err := spec.MessageDist(t, speaker, v)
			if err != nil {
				return nil, nil, err
			}
			q[speaker][v] *= d.P(sym)
		}
		symBits, err := spec.MessageBits(t, sym)
		if err != nil {
			return nil, nil, err
		}
		bits += symBits
		t = append(t, sym)
	}
}

// BoardRun is the result of executing a Spec on the blackboard.
type BoardRun struct {
	Board      *blackboard.Board
	Transcript core.Transcript
	Output     int
}

// SpecProtocol is a Spec instantiated on concrete inputs as blackboard
// scheduler and players, so any runtime that drives the blackboard state
// machine — the sequential blackboard.Run or the concurrent
// internal/netrun — can execute it. The board's bit count must then equal
// the Spec's declared charging, which keeps the two protocol layers honest
// against each other.
//
// Each symbol is encoded in ⌈log₂ alphabet⌉ bits, so the Spec's
// MessageBits must equal that fixed width. The scheduler and players share
// the decoded transcript through this struct; a SpecProtocol is single-use
// and not itself concurrency-safe — concurrent runtimes serialize
// scheduler and player calls (netrun holds its run mutex across both).
type SpecProtocol struct {
	spec    core.Spec
	x       []int
	private *rng.Source

	// t is the decoded transcript: a pure function of the board (each
	// message is one fixed-width symbol).
	t core.Transcript
}

// NewSpecProtocol binds spec to the players' inputs. private provides the
// players' randomness (may be nil for deterministic specs).
func NewSpecProtocol(spec core.Spec, x []int, private *rng.Source) (*SpecProtocol, error) {
	if len(x) != spec.NumPlayers() {
		return nil, fmt.Errorf("core: input has %d entries, want %d", len(x), spec.NumPlayers())
	}
	return &SpecProtocol{spec: spec, x: x, private: private}, nil
}

// Scheduler returns the blackboard scheduler driving the spec.
func (sp *SpecProtocol) Scheduler() blackboard.Scheduler {
	return blackboard.FuncScheduler(func(b *blackboard.Board) (int, bool, error) {
		speaker, done, err := sp.spec.NextSpeaker(sp.t)
		if err != nil {
			return 0, false, err
		}
		return speaker, done, nil
	})
}

// Players returns the blackboard players, one per input entry.
func (sp *SpecProtocol) Players() []blackboard.Player {
	players := make([]blackboard.Player, sp.spec.NumPlayers())
	for i := range players {
		i := i
		players[i] = blackboard.FuncPlayer(func(b *blackboard.Board) (blackboard.Message, error) {
			return sp.speak(i)
		})
	}
	return players
}

// Limits returns the execution bound the sequential runtime uses.
func (sp *SpecProtocol) Limits() blackboard.Limits {
	return blackboard.Limits{MaxMessages: maxDepth}
}

// Transcript returns the symbols decoded so far.
func (sp *SpecProtocol) Transcript() core.Transcript { return sp.t }

// Output evaluates the spec's output on the transcript accumulated by the
// execution.
func (sp *SpecProtocol) Output() (int, error) { return sp.spec.Output(sp.t) }

func (sp *SpecProtocol) speak(i int) (blackboard.Message, error) {
	alphabet, err := sp.spec.MessageAlphabet(sp.t)
	if err != nil {
		return blackboard.Message{}, err
	}
	if alphabet < 1 {
		return blackboard.Message{}, fmt.Errorf("core: non-positive alphabet %d", alphabet)
	}
	dist, err := sp.spec.MessageDist(sp.t, i, sp.x[i])
	if err != nil {
		return blackboard.Message{}, err
	}
	var sym int
	if sp.private != nil {
		sym = dist.Sample(sp.private)
	} else {
		// Deterministic specs have a point-mass message.
		support := 0
		for v := 0; v < dist.Size(); v++ {
			if dist.P(v) > 0 {
				sym, support = v, support+1
			}
		}
		if support != 1 {
			return blackboard.Message{}, fmt.Errorf("core: randomized spec needs a private randomness source")
		}
	}
	width := encoding.FixedWidth(uint64(alphabet))
	declared, err := sp.spec.MessageBits(sp.t, sym)
	if err != nil {
		return blackboard.Message{}, err
	}
	if declared != width {
		return blackboard.Message{}, fmt.Errorf(
			"core: spec charges %d bits for symbol %d but the fixed-width encoding needs %d",
			declared, sym, width)
	}
	var w encoding.BitWriter
	if err := w.WriteBits(uint64(sym), width); err != nil {
		return blackboard.Message{}, err
	}
	sp.t = append(sp.t, sym)
	return blackboard.NewMessage(i, &w), nil
}

// RunSpecOnBlackboard executes spec on the given inputs over the
// sequential broadcast runtime. private provides the players' randomness
// (may be nil for deterministic specs).
func RunSpecOnBlackboard(spec core.Spec, x []int, private *rng.Source) (*BoardRun, error) {
	sp, err := NewSpecProtocol(spec, x, private)
	if err != nil {
		return nil, err
	}
	res, err := blackboard.Run(sp.Scheduler(), sp.Players(), nil, sp.Limits())
	if err != nil {
		return nil, fmt.Errorf("core: spec on blackboard: %w", err)
	}
	out, err := sp.Output()
	if err != nil {
		return nil, err
	}
	return &BoardRun{Board: res.Board, Transcript: sp.Transcript(), Output: out}, nil
}

// WorstCaseError returns the maximum error probability of spec over the
// given inputs, against the target function f, by exact enumeration.
func WorstCaseError(spec core.Spec, inputs [][]int, f func(x []int) int, lim core.TreeLimits) (float64, error) {
	leaves, err := core.EnumerateTranscripts(spec, lim)
	if err != nil {
		return 0, err
	}
	worst := 0.0
	for _, x := range inputs {
		want := f(x)
		errP := 0.0
		total := 0.0
		for _, leaf := range leaves {
			pl, err := leaf.ProbGivenInput(x)
			if err != nil {
				return 0, err
			}
			total += pl
			if leaf.Output != want {
				errP += pl
			}
		}
		if math.Abs(total-1) > 1e-6 {
			return 0, fmt.Errorf("core: transcript probabilities on input %v sum to %v", x, total)
		}
		if e := errP / total; e > worst {
			worst = e
		}
	}
	return worst, nil
}

// AllBinaryInputs enumerates {0,1}^k, for use with WorstCaseError on
// small AND_k instances.
func AllBinaryInputs(k int) [][]int {
	out := make([][]int, 0, 1<<uint(k))
	for mask := 0; mask < 1<<uint(k); mask++ {
		x := make([]int, k)
		for i := range x {
			x[i] = mask >> uint(i) & 1
		}
		out = append(out, x)
	}
	return out
}

// AndFunc is AND_k as a target function on binary inputs.
func AndFunc(x []int) int {
	for _, v := range x {
		if v == 0 {
			return 0
		}
	}
	return 1
}
