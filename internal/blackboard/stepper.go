package blackboard

import (
	"fmt"

	"broadcastic/internal/rng"
	"broadcastic/internal/telemetry"
)

// Stepper exposes the execution loop of Run one step at a time, so that
// alternative runtimes (internal/netrun's concurrent networked runtime, or
// any future driver) can run the same state machine while doing their own
// work — transporting messages over a wire, injecting faults — between the
// two halves of a step.
//
// A step is: Next() to learn the next speaker (or that the protocol is
// done), obtain that player's message by whatever means the driver uses,
// then Deliver(msg) to validate and append it. Next and Deliver must
// alternate; the Stepper enforces the discipline. Neither records
// telemetry: the board is the run's ledger, and Record publishes it once
// the run ends. A Stepper is not safe for concurrent use — drivers
// serialize access themselves.
type Stepper struct {
	board *Board
	sched Scheduler
	lim   Limits

	// expect is the speaker announced by the last Next, or -1 when no
	// delivery is pending.
	expect int
	done   bool

	// pubMark anchors the public-randomness draw count Record reports.
	pubMark rng.Mark
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
	st := &Stepper{board: board, sched: sched, lim: lim, expect: -1}
	if public != nil {
		st.pubMark = public.Mark()
	}
	return st, nil
}

// Record publishes the paper's communication accounting of this execution
// into rec (nil: nothing), read off the board: the messages on it, their
// total bits and the bits of every player that spoke. Once the scheduler
// has halted it also adds one sample each of the run's rounds, bits and
// public-randomness draws; a run cut short by a crash or a failure has no
// such samples. Call it once, when the run ends, on success and failure
// alike: a second call counts the board again. Recording never alters
// execution.
func (st *Stepper) Record(rec *telemetry.Collector) {
	if rec == nil {
		return
	}
	b := st.board
	if b.NumMessages() > 0 {
		rec.Count(telemetry.BlackboardMessages, int64(b.NumMessages()))
		rec.Count(telemetry.BlackboardBits, int64(b.TotalBits()))
		spoke := make([]bool, b.NumPlayers())
		for _, m := range b.Messages() {
			if !spoke[m.Player] {
				spoke[m.Player] = true
				rec.Count(telemetry.Indexed(telemetry.BlackboardPlayer, m.Player, "bits"), int64(b.PlayerBits(m.Player)))
			}
		}
	}
	if !st.done {
		return
	}
	rec.Observe(telemetry.BlackboardRounds, float64(b.NumMessages()))
	rec.Observe(telemetry.BlackboardRunBits, float64(b.TotalBits()))
	if pub := b.Public(); pub != nil {
		rec.Observe(telemetry.BlackboardPublicDraws, float64(pub.DrawsSince(st.pubMark)))
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
	return nil
}
