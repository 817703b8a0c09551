package netrun_test

import (
	"fmt"

	"broadcastic/internal/blackboard"
	"broadcastic/internal/compress"
	"broadcastic/internal/encoding"
	"broadcastic/internal/prob"
)

// samplerProtocol wraps one Lemma 7 transmission as a two-player
// blackboard protocol, so any runtime driving the blackboard state machine
// — sequential blackboard.Run or the concurrent internal/netrun — can
// execute the sampler with full bit accounting.
//
// Player 0 (the sender) runs Transmit against the board's public
// randomness and writes the exact encoded payload; player 1 (standing in
// for the receivers) announces the reconstructed value in a fixed-width
// field, certifying on the board that the transmission decoded. The run
// must be given a public randomness source — the sampler is built on it.
//
// A protocol instance is single-use and not itself concurrency-safe;
// concurrent runtimes serialize scheduler and player calls.
type samplerProtocol struct {
	eta, nu prob.Dist
	res     *compress.TransmitResult
}

// newSamplerProtocol binds the sender's distribution η and the receivers'
// prior ν (validated by Transmit at execution time).
func newSamplerProtocol(eta, nu prob.Dist) *samplerProtocol {
	return &samplerProtocol{eta: eta, nu: nu}
}

// Scheduler returns the two-turn schedule: sender, then receiver, done.
func (sp *samplerProtocol) Scheduler() blackboard.Scheduler {
	return blackboard.FuncScheduler(func(b *blackboard.Board) (int, bool, error) {
		switch b.NumMessages() {
		case 0:
			return 0, false, nil
		case 1:
			return 1, false, nil
		default:
			return 0, true, nil
		}
	})
}

// Players returns the sender and the echoing receiver.
func (sp *samplerProtocol) Players() []blackboard.Player {
	sender := blackboard.FuncPlayer(func(b *blackboard.Board) (blackboard.Message, error) {
		res, err := compress.NewTransmitter().Transmit(sp.eta, sp.nu, b.Public())
		if err != nil {
			return blackboard.Message{}, err
		}
		sp.res = res
		return blackboard.Message{Player: 0, Bits: res.Payload, Len: res.Bits}, nil
	})
	receiver := blackboard.FuncPlayer(func(b *blackboard.Board) (blackboard.Message, error) {
		if sp.res == nil {
			return blackboard.Message{}, fmt.Errorf("compress: receiver spoke before the transmission")
		}
		var w encoding.BitWriter
		width := encoding.FixedWidth(uint64(sp.eta.Size()))
		if err := w.WriteBits(uint64(sp.res.Value), width); err != nil {
			return blackboard.Message{}, err
		}
		return blackboard.NewMessage(1, &w), nil
	})
	return []blackboard.Player{sender, receiver}
}

// Limits bounds the execution at its exact two messages.
func (sp *samplerProtocol) Limits() blackboard.Limits {
	return blackboard.Limits{MaxMessages: 2}
}

// Result returns the transmission outcome, or nil before execution.
func (sp *samplerProtocol) Result() *compress.TransmitResult { return sp.res }
