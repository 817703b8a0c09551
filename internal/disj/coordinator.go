package disj

import (
	"fmt"

	"broadcastic/internal/blackboard"
	"broadcastic/internal/encoding"
)

// This file ports DISJ to the coordinator (message-passing) model of
// Braverman–Ellen–Oshman–Pitassi–Vaikuntanathan: players talk only to a
// hub, never to each other, and the hub's Θ(nk) lower bound is what the
// broadcast model's Θ(n log k + k) protocol separates from.
//
// The protocol is the model's canonical upper bound: each player sends the
// hub its n-bit membership bitmap and the hub intersects them, so the cost
// is exactly n·k bits and the answer exact. Players need no board access
// at all: the protocol runs unchanged under netrun's DeliverCoordinator
// mode, where replicas stay empty.

// CoordinatorCostModel is the coordinator-model communication in bits:
// every player ships its whole bitmap to the hub — the Θ(nk) behavior the
// BEOPV lower bound says is unavoidable.
func CoordinatorCostModel(n, k float64) float64 { return n * k }

// CoordinatorProtocol is the coordinator-model protocol in blackboard
// form. The "board" is the hub's received-message log: the scheduler (the
// hub) decodes it, the players never read it — their messages are a pure
// function of their input — so the same adapter runs on the sequential
// runtime, on netrun's broadcast topologies, and under DeliverCoordinator
// where replicas stay empty. Single-use, like the other protocol adapters.
type CoordinatorProtocol struct {
	run     *coordRun
	players []blackboard.Player
}

// NewCoordinatorProtocol instantiates the protocol on one instance.
func NewCoordinatorProtocol(inst *Instance) (*CoordinatorProtocol, error) {
	if inst == nil {
		return nil, fmt.Errorf("disj: nil instance")
	}
	run := &coordRun{inst: inst, live: make([]bool, inst.N)}
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
// each bitmap as it lands.
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
	inst *Instance
	// live[j] is whether coordinate j survives the intersection of every
	// bitmap decoded so far.
	live      []bool
	processed int
	answered  bool
	disjoint  bool
}

// Next implements blackboard.Scheduler: players speak once, in order;
// after the k-th bitmap the hub answers.
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
			return fmt.Errorf("disj: coordinator expected bitmap from player %d, got one from %d", cr.processed, msg.Player)
		}
		if msg.Len != cr.inst.N {
			return fmt.Errorf("disj: bitmap from player %d has %d bits, want %d", msg.Player, msg.Len, cr.inst.N)
		}
		r, err := encoding.NewBitReader(msg.Bits, msg.Len)
		if err != nil {
			return err
		}
		for j := range cr.live {
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

// coordPlayer sends its membership bitmap. It ignores the board entirely —
// by design it works with an empty replica.
type coordPlayer struct {
	run *coordRun
	id  int
}

// Speak implements blackboard.Player.
func (p *coordPlayer) Speak(*blackboard.Board) (blackboard.Message, error) {
	var w encoding.BitWriter
	set := p.run.inst.Sets[p.id]
	for coord := 0; coord < p.run.inst.N; coord++ {
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
