package disj

import (
	"fmt"
	"math"

	"broadcastic/internal/blackboard"
	"broadcastic/internal/encoding"
	"broadcastic/internal/rng"
)

// This file ports DISJ to the coordinator (message-passing) model of
// Braverman–Ellen–Oshman–Pitassi–Vaikuntanathan: players talk only to a
// hub, never to each other, and the hub's Θ(nk) lower bound is what the
// broadcast model's Θ(n log k + k) protocol separates from.
//
// The protocol is the model's canonical upper bound: each player sends the
// hub its membership bitmap — optionally restricted to a shared ε-sketch —
// and the hub intersects. With ε = 0 the cost is exactly n·k bits and the
// answer exact; with ε > 0 each player sends ⌈(1−ε)n⌉ bits over a
// publicly-sampled coordinate subset S, and the protocol has one-sided
// error ≤ ε: "not disjoint" is always certified by a common element in S,
// "disjoint" errs only when every intersection witness was sampled out,
// which for a single witness happens with probability ≤ ε.
//
// The sketch subset is derived from CoordinatorOptions.SketchSeed on both
// sides — public randomness, free in the model — so players need no board
// access at all: the protocol runs unchanged under netrun's
// DeliverCoordinator mode, where replicas stay empty.

// CoordinatorOptions tune the coordinator-model protocol.
type CoordinatorOptions struct {
	// Epsilon is the one-sided error budget in [0, 1): each player sends
	// its bitmap over a shared random subset of ⌈(1−ε)n⌉ coordinates.
	// 0 sends the full bitmap and is exact.
	Epsilon float64
	// SketchSeed roots the shared sampling of the sketch subset; hub and
	// players derive the same subset from it without communicating.
	// Ignored when Epsilon is 0.
	SketchSeed uint64
}

// CoordinatorCostModel is the coordinator-model communication in bits for
// the exact (ε = 0) protocol: every player ships its whole bitmap to the
// hub — the Θ(nk) behavior the BEOPV lower bound says is unavoidable.
func CoordinatorCostModel(n, k float64) float64 { return n * k }

// sketchSubset returns the sorted sketch coordinates: all of [n] for
// ε = 0, else a uniform ⌈(1−ε)n⌉-subset drawn from the seed.
func sketchSubset(n int, opts CoordinatorOptions) []int {
	m := n
	if opts.Epsilon > 0 {
		m = int(math.Ceil((1 - opts.Epsilon) * float64(n)))
		if m < 1 {
			m = 1
		}
		if m > n {
			m = n
		}
	}
	return rng.New(opts.SketchSeed).SampleWithoutReplacement(n, m)
}

// CoordinatorProtocol is the coordinator-model protocol in blackboard
// form. The "board" is the hub's received-message log: the scheduler (the
// hub) decodes it, the players never read it — their messages are a pure
// function of their input and the shared sketch — so the same adapter
// runs on the sequential runtime, on netrun's broadcast topologies, and
// under DeliverCoordinator where replicas stay empty. Single-use, like
// the other protocol adapters.
type CoordinatorProtocol struct {
	run     *coordRun
	players []blackboard.Player
}

// NewCoordinatorProtocol instantiates the protocol on one instance.
func NewCoordinatorProtocol(inst *Instance, opts CoordinatorOptions) (*CoordinatorProtocol, error) {
	if inst == nil {
		return nil, fmt.Errorf("disj: nil instance")
	}
	if opts.Epsilon < 0 || opts.Epsilon >= 1 {
		return nil, fmt.Errorf("disj: sketch epsilon %v outside [0,1)", opts.Epsilon)
	}
	subset := sketchSubset(inst.N, opts)
	run := &coordRun{
		inst:   inst,
		subset: subset,
		live:   make([]bool, len(subset)),
	}
	for j := range run.live {
		run.live[j] = true
	}
	players := make([]blackboard.Player, inst.K)
	for i := 0; i < inst.K; i++ {
		players[i] = &coordPlayer{run: run, id: i}
	}
	return &CoordinatorProtocol{run: run, players: players}, nil
}

// Scheduler returns the hub: it drives one round-robin pass and decodes
// each sketch as it lands.
func (cp *CoordinatorProtocol) Scheduler() blackboard.Scheduler { return cp.run }

// Players returns the k players.
func (cp *CoordinatorProtocol) Players() []blackboard.Player { return cp.players }

// Limits bounds the execution: exactly one message per player.
func (cp *CoordinatorProtocol) Limits() blackboard.Limits {
	return blackboard.Limits{MaxMessages: cp.run.inst.K}
}

// Outcome reads the hub's answer off a completed execution.
func (cp *CoordinatorProtocol) Outcome(b *blackboard.Board) (*Outcome, error) {
	if !cp.run.answered {
		return nil, fmt.Errorf("disj: coordinator protocol halted without an answer")
	}
	return &Outcome{
		Disjoint: cp.run.disjoint,
		Bits:     b.TotalBits(),
		Messages: b.NumMessages(),
	}, nil
}

// coordRun is the hub: its state is a pure function of the message log.
type coordRun struct {
	inst   *Instance
	subset []int
	// live[j] is whether sketch coordinate j survives the intersection of
	// every sketch decoded so far.
	live      []bool
	processed int
	answered  bool
	disjoint  bool
}

// Next implements blackboard.Scheduler: players speak once, in order;
// after the k-th sketch the hub answers.
func (cr *coordRun) Next(b *blackboard.Board) (int, bool, error) {
	if err := cr.catchUp(b); err != nil {
		return 0, false, err
	}
	if cr.processed == cr.inst.K {
		if !cr.answered {
			cr.answered = true
			cr.disjoint = true
			for _, alive := range cr.live {
				if alive {
					cr.disjoint = false
					break
				}
			}
		}
		return 0, true, nil
	}
	return cr.processed, false, nil
}

// catchUp decodes messages the hub has not yet folded into the
// intersection.
func (cr *coordRun) catchUp(b *blackboard.Board) error {
	for cr.processed < b.NumMessages() {
		msg := b.Messages()[cr.processed]
		if msg.Player != cr.processed {
			return fmt.Errorf("disj: coordinator expected sketch from player %d, got one from %d", cr.processed, msg.Player)
		}
		if msg.Len != len(cr.subset) {
			return fmt.Errorf("disj: sketch from player %d has %d bits, want %d", msg.Player, msg.Len, len(cr.subset))
		}
		r, err := encoding.NewBitReader(msg.Bits, msg.Len)
		if err != nil {
			return err
		}
		for j := range cr.subset {
			bit, err := r.ReadBit()
			if err != nil {
				return err
			}
			if bit == 0 {
				cr.live[j] = false
			}
		}
		cr.processed++
	}
	return nil
}

// coordPlayer sends its membership bitmap over the sketch subset. It
// ignores the board entirely — by design it works with an empty replica.
type coordPlayer struct {
	run *coordRun
	id  int
}

// Speak implements blackboard.Player.
func (p *coordPlayer) Speak(*blackboard.Board) (blackboard.Message, error) {
	var w encoding.BitWriter
	set := p.run.inst.Sets[p.id]
	for _, coord := range p.run.subset {
		bit := 0
		if set.Get(coord) {
			bit = 1
		}
		if err := w.WriteBit(bit); err != nil {
			return blackboard.Message{}, err
		}
	}
	return blackboard.NewMessage(p.id, &w), nil
}
