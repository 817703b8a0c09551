package disj

import (
	"fmt"

	"broadcastic/internal/blackboard"
	"broadcastic/internal/encoding"
)

// SolveNaive runs the introduction's one-pass protocol: players go in
// order, each writing the coordinates where its input is zero, unless they
// already appear on the board; a player with nothing new writes a single
// bit. After all players have spoken, a coordinate absent from the board is
// in the intersection. Communication Θ(n log n + k): each coordinate costs
// ⌈log₂ n⌉ bits.
//
// Message format per player: 1 flag bit (1 = contributes), then the count
// of new zeros (Elias gamma of count, count >= 1), then each coordinate as
// a fixed ⌈log₂ n⌉-bit integer.
func SolveNaive(inst *Instance) (*Outcome, error) {
	if inst == nil {
		return nil, fmt.Errorf("disj: nil instance")
	}
	n, k := inst.N, inst.K
	coordBits := encoding.FixedWidth(uint64(n))

	// covered tracks which coordinates appear on the board; it is a pure
	// function of the board contents, maintained incrementally as players
	// write (every player could reconstruct it by decoding the board).
	covered := make([]bool, n)
	coveredCount := 0

	players := make([]blackboard.Player, k)
	for i := 0; i < k; i++ {
		i := i
		players[i] = blackboard.FuncPlayer(func(b *blackboard.Board) (blackboard.Message, error) {
			var newZeros []int
			for j := 0; j < n; j++ {
				if !inst.Sets[i].Get(j) && !covered[j] {
					newZeros = append(newZeros, j)
				}
			}
			var w encoding.BitWriter
			if len(newZeros) == 0 {
				if err := w.WriteBit(0); err != nil {
					return blackboard.Message{}, err
				}
				return blackboard.NewMessage(i, &w), nil
			}
			if err := w.WriteBit(1); err != nil {
				return blackboard.Message{}, err
			}
			if err := encoding.WriteEliasGamma(&w, uint64(len(newZeros))); err != nil {
				return blackboard.Message{}, err
			}
			for _, j := range newZeros {
				if err := w.WriteBits(uint64(j), coordBits); err != nil {
					return blackboard.Message{}, err
				}
				covered[j] = true
				coveredCount++
			}
			return blackboard.NewMessage(i, &w), nil
		})
	}

	sched := &blackboard.RoundRobin{
		K:    k,
		Stop: func(b *blackboard.Board) (bool, error) { return b.NumMessages() >= k, nil },
	}
	res, err := blackboard.Run(sched, players, nil, blackboard.Limits{MaxMessages: k + 1})
	if err != nil {
		return nil, fmt.Errorf("disj: naive protocol: %w", err)
	}
	return &Outcome{
		Disjoint: coveredCount == n,
		Bits:     res.Board.TotalBits(),
		Messages: res.Board.NumMessages(),
	}, nil
}
