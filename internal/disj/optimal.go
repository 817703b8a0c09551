package disj

import (
	"fmt"

	"broadcastic/internal/blackboard"
	"broadcastic/internal/encoding"
)

// SolveOptimal runs the Section 5 protocol, which is deterministic and uses
// O(n log k + k) bits:
//
//   - The protocol runs in cycles. At the start of cycle i let Z_i be the
//     set of coordinates not yet on the board and z_i = |Z_i|.
//   - While z_i >= k²: players speak in order; a player holding at least
//     w = ⌈z_i/k⌉ "new zeroes" (zero coordinates of its input inside Z_i
//     not yet on the board) writes w of them as one batch, encoded as a
//     w-subset of Z_i in ⌈log₂ C(z_i, w)⌉ bits — amortized Θ(log k) bits
//     per coordinate. Otherwise it writes a single "pass" bit.
//   - When z_i < k²: one final cycle in which every player writes all its
//     new zeroes naively as indices into Z_i (⌈log₂ z_i⌉ bits each).
//   - Halting: output "disjoint" as soon as every coordinate is on the
//     board; output "non-disjoint" after a phase-1 cycle in which every
//     player passed, or after the endgame cycle if coordinates remain.
//
// If the sets are disjoint, the pigeonhole principle guarantees some player
// always has >= z_i/k new zeroes, so an all-pass cycle certifies a common
// element.
func SolveOptimal(inst *Instance) (*Outcome, error) {
	return SolveOptimalOpts(inst, Options{})
}

// Options ablate individual design choices of the Section 5 protocol, for
// the E14 experiment that quantifies what each one buys:
//
//   - DisableBatching replaces the ⌈log₂ C(z,w)⌉-bit subset encoding by w
//     individual ⌈log₂ z⌉-bit coordinates — reintroducing the log n factor
//     the batching removes.
//   - DisableEndgame removes the z < k² switch, staying in phase 1 all the
//     way down. The protocol stays correct (the pigeonhole argument holds
//     for every z ≥ 1) but pays extra pass-bit cycles on the tail.
type Options struct {
	DisableBatching bool
	DisableEndgame  bool
}

// Breakdown attributes the optimal protocol's bits to their sources, the
// data behind experiment E16 (where the measured constant over the
// n·log₂k + k model comes from).
type Breakdown struct {
	PassBits    int // 1-bit "pass" messages and contribution flags
	BatchBits   int // subset-encoded batches (phase 1 payload)
	EndgameBits int // naive per-coordinate writes in the final cycle
	Cycles      int // number of cycles started
}

// SolveOptimalDetailed runs the protocol and also reports the Breakdown.
func SolveOptimalDetailed(inst *Instance, opts Options) (*Outcome, *Breakdown, error) {
	out, p, _, err := solveOptimal(inst, opts)
	if err != nil {
		return nil, nil, err
	}
	return out, &p.breakdown, nil
}

// SolveOptimalOpts runs the Section 5 protocol with the given ablations.
func SolveOptimalOpts(inst *Instance, opts Options) (*Outcome, error) {
	out, _, _, err := solveOptimal(inst, opts)
	return out, err
}

// SolveOptimalMessages runs the protocol and returns the individual
// message sizes in board order (used by the radio layer to map the
// execution onto channel slots), read off the run's board.
func SolveOptimalMessages(inst *Instance, opts Options) (*Outcome, []int, error) {
	out, _, board, err := solveOptimal(inst, opts)
	if err != nil {
		return nil, nil, err
	}
	msgs := board.Messages()
	sizes := make([]int, len(msgs))
	for i, m := range msgs {
		sizes[i] = m.Len
	}
	return out, sizes, nil
}

// OptimalProtocol is the Section 5 protocol in blackboard form — a
// scheduler, players and limits any runtime can drive (the sequential
// blackboard.Run or the concurrent internal/netrun). The scheduler and
// players share the run state through this struct; a protocol instance is
// single-use and not itself concurrency-safe — concurrent runtimes
// serialize scheduler and player calls.
type OptimalProtocol struct {
	run     *optimalRun
	players []blackboard.Player
}

// NewOptimalProtocol instantiates the protocol on one instance.
func NewOptimalProtocol(inst *Instance, opts Options) (*OptimalProtocol, error) {
	if inst == nil {
		return nil, fmt.Errorf("disj: nil instance")
	}
	p := newOptimalRun(inst, opts)
	players := make([]blackboard.Player, inst.K)
	for i := 0; i < inst.K; i++ {
		players[i] = &optimalPlayer{run: p, id: i}
	}
	return &OptimalProtocol{run: p, players: players}, nil
}

// Scheduler returns the protocol's blackboard scheduler.
func (op *OptimalProtocol) Scheduler() blackboard.Scheduler { return op.run }

// Players returns the k blackboard players.
func (op *OptimalProtocol) Players() []blackboard.Player { return op.players }

// Limits bounds the execution length.
func (op *OptimalProtocol) Limits() blackboard.Limits {
	inst, opts := op.run.inst, op.run.opts
	limits := blackboard.Limits{
		// Generous: phase 1 has at most k·ln n cycles of k messages.
		MaxMessages: inst.K*(64+logCeil(inst.N)*inst.K) + inst.K + 64,
	}
	if opts.DisableEndgame {
		// Without the endgame the tail can burn up to k² single-coordinate
		// cycles of k messages each.
		limits.MaxMessages += inst.K * inst.K * inst.K
	}
	return limits
}

// Outcome reads the protocol's answer off a completed execution whose
// transcript lives on b.
func (op *OptimalProtocol) Outcome(b *blackboard.Board) (*Outcome, error) {
	if !op.run.answered {
		return nil, fmt.Errorf("disj: optimal protocol halted without an answer")
	}
	return &Outcome{
		Disjoint: op.run.disjoint,
		Bits:     b.TotalBits(),
		Messages: b.NumMessages(),
	}, nil
}

func solveOptimal(inst *Instance, opts Options) (*Outcome, *optimalRun, *blackboard.Board, error) {
	op, err := NewOptimalProtocol(inst, opts)
	if err != nil {
		return nil, nil, nil, err
	}
	res, err := blackboard.Run(op.Scheduler(), op.Players(), nil, op.Limits())
	if err != nil {
		return nil, nil, nil, fmt.Errorf("disj: optimal protocol: %w", err)
	}
	out, err := op.Outcome(res.Board)
	if err != nil {
		return nil, nil, nil, err
	}
	return out, op.run, res.Board, nil
}

func logCeil(n int) int { return encoding.FixedWidth(uint64(n)) + 1 }

// optimalRun holds the protocol's public state: everything here is a pure
// function of the board contents — the scheduler decodes each appended
// message (it never peeks at player inputs), so any observer of the board
// could maintain the same state.
type optimalRun struct {
	inst *Instance
	opts Options
	k, n int

	covered      []bool
	coveredCount int

	started       bool
	endgame       bool // z < k²: final naive cycle
	zCycle        []int
	w             int // batch size ⌈z/k⌉ (phase 1)
	posInCycle    int
	contributions int // batches written this cycle
	processed     int // board messages decoded so far

	answered  bool
	disjoint  bool
	breakdown Breakdown
}

func newOptimalRun(inst *Instance, opts Options) *optimalRun {
	return &optimalRun{
		inst:    inst,
		opts:    opts,
		k:       inst.K,
		n:       inst.N,
		covered: make([]bool, inst.N),
		// The first cycle's live set is every coordinate, and later ones
		// only shrink.
		zCycle: make([]int, 0, inst.N),
	}
}

// startCycle recomputes the live set from the covered map and decides the
// phase for the next cycle.
func (p *optimalRun) startCycle() {
	p.zCycle = p.zCycle[:0]
	for j := 0; j < p.n; j++ {
		if !p.covered[j] {
			p.zCycle = append(p.zCycle, j)
		}
	}
	z := len(p.zCycle)
	p.endgame = z < p.k*p.k && !p.opts.DisableEndgame
	p.w = (z + p.k - 1) / p.k
	p.posInCycle = 0
	p.contributions = 0
	p.breakdown.Cycles++
}

// Next implements blackboard.Scheduler.
func (p *optimalRun) Next(b *blackboard.Board) (int, bool, error) {
	if err := p.catchUp(b); err != nil {
		return 0, false, err
	}
	if p.answered {
		return 0, true, nil
	}
	if !p.started {
		p.started = true
		p.startCycle()
	}
	if p.coveredCount == p.n {
		p.answered, p.disjoint = true, true
		return 0, true, nil
	}
	if p.posInCycle == p.k {
		// End of a complete cycle.
		if p.endgame {
			// Endgame cycle complete and coordinates remain.
			p.answered, p.disjoint = true, false
			return 0, true, nil
		}
		if p.contributions == 0 {
			// All players passed: pigeonhole certifies a common element.
			p.answered, p.disjoint = true, false
			return 0, true, nil
		}
		p.startCycle()
		if p.coveredCount == p.n {
			p.answered, p.disjoint = true, true
			return 0, true, nil
		}
	}
	return p.posInCycle, false, nil
}

// catchUp decodes any messages appended since the last call, keeping the
// public state synchronized with the board.
func (p *optimalRun) catchUp(b *blackboard.Board) error {
	msgs := b.Messages()
	for ; p.processed < len(msgs); p.processed++ {
		if err := p.decode(msgs[p.processed]); err != nil {
			return err
		}
	}
	return nil
}

// decode interprets one message under the current cycle state.
func (p *optimalRun) decode(m blackboard.Message) error {
	r, err := m.Reader()
	if err != nil {
		return err
	}
	z := len(p.zCycle)
	if p.endgame {
		p.breakdown.EndgameBits += m.Len
		cnt, err := encoding.ReadNonNeg(r)
		if err != nil {
			return fmt.Errorf("disj: endgame count: %w", err)
		}
		width := encoding.FixedWidth(uint64(z))
		for c := uint64(0); c < cnt; c++ {
			pos, err := r.ReadBits(width)
			if err != nil {
				return fmt.Errorf("disj: endgame coordinate: %w", err)
			}
			if int(pos) >= z {
				return fmt.Errorf("disj: endgame coordinate %d outside live set of %d", pos, z)
			}
			p.cover(p.zCycle[pos])
		}
		p.posInCycle++
		return p.expectEnd(r, m)
	}
	flag, err := r.ReadBit()
	if err != nil {
		return fmt.Errorf("disj: phase-1 flag: %w", err)
	}
	p.breakdown.PassBits++ // the flag / pass bit
	if flag == 1 {
		p.breakdown.BatchBits += m.Len - 1
		if p.opts.DisableBatching {
			width := encoding.FixedWidth(uint64(z))
			for c := 0; c < p.w; c++ {
				pos, err := r.ReadBits(width)
				if err != nil {
					return fmt.Errorf("disj: unbatched coordinate: %w", err)
				}
				if int(pos) >= z {
					return fmt.Errorf("disj: coordinate %d outside live set of %d", pos, z)
				}
				p.cover(p.zCycle[pos])
			}
		} else {
			positions, err := encoding.ReadSubsetFast(r, z, p.w)
			if err != nil {
				return fmt.Errorf("disj: phase-1 batch: %w", err)
			}
			for _, pos := range positions {
				p.cover(p.zCycle[pos])
			}
		}
		p.contributions++
	}
	p.posInCycle++
	return p.expectEnd(r, m)
}

func (p *optimalRun) expectEnd(r *encoding.BitReader, m blackboard.Message) error {
	if r.Remaining() != 0 {
		return fmt.Errorf("disj: message from player %d has %d trailing bits", m.Player, r.Remaining())
	}
	return nil
}

func (p *optimalRun) cover(coord int) {
	if !p.covered[coord] {
		p.covered[coord] = true
		p.coveredCount++
	}
}

var _ blackboard.Scheduler = (*optimalRun)(nil)

// optimalPlayer produces messages from its private input and the shared
// public state.
type optimalPlayer struct {
	run *optimalRun
	id  int
	// newZeros is Speak's scratch for the positions (indices into zCycle)
	// of this player's new zeroes. Runtimes serialize Speak calls, and each
	// player owns its scratch.
	newZeros []int
}

// Speak implements blackboard.Player.
func (pl *optimalPlayer) Speak(b *blackboard.Board) (blackboard.Message, error) {
	p := pl.run
	if pl.newZeros == nil {
		// The first cycle's w is the largest batch outside the endgame.
		pl.newZeros = make([]int, 0, p.w)
	}
	// Outside the endgame a batch is the first w new zeroes, so the scan
	// stops at the w-th; with fewer it runs to the end and the player
	// passes.
	newZeros := pl.newZeros[:0]
	for pos, coord := range p.zCycle {
		if !p.inst.Sets[pl.id].Get(coord) && !p.covered[coord] {
			newZeros = append(newZeros, pos)
			if !p.endgame && len(newZeros) == p.w {
				break
			}
		}
	}
	pl.newZeros = newZeros
	var w encoding.BitWriter
	z := len(p.zCycle)
	if p.endgame {
		if err := encoding.WriteNonNeg(&w, uint64(len(newZeros))); err != nil {
			return blackboard.Message{}, err
		}
		width := encoding.FixedWidth(uint64(z))
		for _, pos := range newZeros {
			if err := w.WriteBits(uint64(pos), width); err != nil {
				return blackboard.Message{}, err
			}
		}
		return blackboard.NewMessage(pl.id, &w), nil
	}
	if len(newZeros) >= p.w {
		if err := w.WriteBit(1); err != nil {
			return blackboard.Message{}, err
		}
		batch := newZeros[:p.w]
		if p.opts.DisableBatching {
			width := encoding.FixedWidth(uint64(z))
			for _, pos := range batch {
				if err := w.WriteBits(uint64(pos), width); err != nil {
					return blackboard.Message{}, err
				}
			}
		} else if err := encoding.WriteSubsetFast(&w, z, batch); err != nil {
			return blackboard.Message{}, err
		}
		return blackboard.NewMessage(pl.id, &w), nil
	}
	if err := w.WriteBit(0); err != nil {
		return blackboard.Message{}, err
	}
	return blackboard.NewMessage(pl.id, &w), nil
}

var _ blackboard.Player = (*optimalPlayer)(nil)

// OptimalCostModel returns the asymptotic cost model n·log₂(k)+k that
// experiment E1/E2 normalizes measured bits by. For k = 1 the log factor is
// replaced by 1 (one bit per coordinate is still needed).
func OptimalCostModel(n, k int) float64 {
	logK := float64(encoding.FixedWidth(uint64(k)))
	if logK < 1 {
		logK = 1
	}
	return float64(n)*logK + float64(k)
}
