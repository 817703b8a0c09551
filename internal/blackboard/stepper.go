package blackboard

import (
	"fmt"

	"broadcastic/internal/rng"
	"broadcastic/internal/telemetry"
)

// Stepper exposes the execution loop of Run one step at a time, so that
// alternative runtimes (internal/netrun's concurrent networked runtime, or
// any future driver) can run the same state machine while doing their own
// work — transporting messages over a wire, injecting faults, collecting
// telemetry — between the two halves of a step.
//
// A step is: Next() to learn the next speaker (or that the protocol is
// done), obtain that player's message by whatever means the driver uses,
// then Deliver(msg) to validate and append it. Next and Deliver must
// alternate; the Stepper enforces the discipline. A Stepper is not safe for
// concurrent use — drivers serialize access themselves.
type Stepper struct {
	board *Board
	sched Scheduler
	lim   Limits

	// expect is the speaker announced by the last Next, or -1 when no
	// delivery is pending.
	expect int
	done   bool

	// rec receives the board-level accounting (nil: disabled, one branch
	// per event); pubMark anchors the public-randomness draw count.
	// messages, bits and playerBits are its handles, resolved by
	// SetRecorder, and a player's at its first message, so Deliver
	// formats no name and looks none up.
	rec            *telemetry.Collector
	pubMark        rng.Mark
	messages, bits *telemetry.CounterHandle
	playerBits     []*telemetry.CounterHandle
}

// NewStepper builds a stepper over a fresh board for numPlayers players.
func NewStepper(sched Scheduler, numPlayers int, public *rng.Source, lim Limits) (*Stepper, error) {
	if sched == nil {
		return nil, fmt.Errorf("blackboard: nil scheduler")
	}
	board, err := NewBoard(numPlayers, public)
	if err != nil {
		return nil, err
	}
	board.Reserve(lim)
	return &Stepper{board: board, sched: sched, lim: lim, expect: -1}, nil
}

// SetRecorder installs a telemetry Collector for this execution (nil to
// disable, the default). The stepper emits the paper's communication
// accounting — messages, total and per-player bits as they land on the
// board, and rounds/bits/public-RNG-draw summaries when the scheduler
// halts. Recording never alters execution: transcripts are bit-identical
// with a live Collector installed.
func (st *Stepper) SetRecorder(rec *telemetry.Collector) {
	st.rec = rec
	st.messages, st.bits, st.playerBits = nil, nil, nil
	if rec == nil {
		return
	}
	st.messages = rec.CounterHandle(telemetry.BlackboardMessages)
	st.bits = rec.CounterHandle(telemetry.BlackboardBits)
	st.playerBits = make([]*telemetry.CounterHandle, st.board.NumPlayers())
	if pub := st.board.Public(); pub != nil {
		st.pubMark = pub.Mark()
	}
}

// Board returns the board under execution.
func (st *Stepper) Board() *Board { return st.board }

// Next consults the scheduler: it returns the next speaker, or done=true
// when the protocol halts. After a Next that names a speaker, the driver
// must Deliver that player's message before calling Next again.
func (st *Stepper) Next() (speaker int, done bool, err error) {
	if st.done {
		return 0, true, nil
	}
	if st.expect >= 0 {
		return 0, false, fmt.Errorf("blackboard: Next called with a delivery pending for player %d", st.expect)
	}
	speaker, done, err = st.sched.Next(st.board)
	if err != nil {
		return 0, false, fmt.Errorf("blackboard: scheduler: %w", err)
	}
	if done {
		st.done = true
		if st.rec != nil {
			st.recordFinish()
		}
		return 0, true, nil
	}
	if speaker < 0 || speaker >= st.board.NumPlayers() {
		return 0, false, fmt.Errorf("blackboard: scheduler chose invalid player %d", speaker)
	}
	st.expect = speaker
	return speaker, false, nil
}

// Deliver validates the announced speaker's message against the pending
// turn and the limits, then appends it. Limit checks happen before the
// append: a rejected message never lands on the board (see Limits).
func (st *Stepper) Deliver(m Message) error {
	if st.expect < 0 {
		return fmt.Errorf("blackboard: Deliver called with no turn pending")
	}
	if m.Player != st.expect {
		return fmt.Errorf("blackboard: player %d produced message attributed to %d", st.expect, m.Player)
	}
	if st.lim.MaxMessages > 0 && st.board.NumMessages()+1 > st.lim.MaxMessages {
		return fmt.Errorf("%w: message %d", ErrMessageLimit, st.board.NumMessages()+1)
	}
	if st.lim.MaxBits > 0 && m.Len >= 0 && st.board.TotalBits()+m.Len > st.lim.MaxBits {
		return fmt.Errorf("%w: %d bits", ErrBitLimit, st.board.TotalBits()+m.Len)
	}
	if err := st.board.Append(m); err != nil {
		return err
	}
	st.expect = -1
	if st.rec != nil {
		st.messages.Add(1)
		st.bits.Add(int64(m.Len))
		h := st.playerBits[m.Player]
		if h == nil {
			h = st.rec.CounterHandle(telemetry.Indexed(telemetry.BlackboardPlayer, m.Player, "bits"))
			st.playerBits[m.Player] = h
		}
		h.Add(int64(m.Len))
	}
	return nil
}

// recordFinish emits the run-level summaries once, when the scheduler
// halts the protocol.
func (st *Stepper) recordFinish() {
	st.rec.Observe(telemetry.BlackboardRounds, float64(st.board.NumMessages()))
	st.rec.Observe(telemetry.BlackboardRunBits, float64(st.board.TotalBits()))
	if pub := st.board.Public(); pub != nil {
		st.rec.Observe(telemetry.BlackboardPublicDraws, float64(pub.DrawsSince(st.pubMark)))
	}
}
