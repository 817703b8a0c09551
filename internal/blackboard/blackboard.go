// Package blackboard implements the communication model of the paper
// (Section 3): k players, each holding a private input, communicate by
// writing messages on a shared blackboard that everyone reads for free. At
// each point the current contents of the board determine whose turn it is
// to speak; the speaker produces a message from its input, its private
// randomness, the public randomness, and the board, and appends it. The
// communication cost of an execution is the total number of bits written.
//
// The package is deliberately mechanism-only: concrete protocols
// (internal/disj, internal/andk, internal/compress) supply the players and
// the speaking order; this package supplies the board, bit-exact
// accounting, the execution loop, and runaway-protocol guards.
package blackboard

import (
	"bytes"
	"errors"
	"fmt"
	"strings"

	"broadcastic/internal/encoding"
	"broadcastic/internal/rng"
)

// Message is one blackboard write: a bit string attributed to a player.
type Message struct {
	Player int
	Bits   []byte // packed MSB-first; trailing pad bits are zero
	Len    int    // number of meaningful bits
}

// NewMessage packs the contents of a BitWriter into a Message.
func NewMessage(player int, w *encoding.BitWriter) Message {
	return Message{Player: player, Bits: w.Bytes(), Len: w.Len()}
}

// Reader returns a BitReader over the message payload.
func (m Message) Reader() (*encoding.BitReader, error) {
	return encoding.NewBitReader(m.Bits, m.Len)
}

// Key returns a compact string identifying the message content (player and
// bits), suitable for use as a map key when building transcript histograms.
func (m Message) Key() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d:", m.Player)
	for i := 0; i < m.Len; i++ {
		if m.Bits[i/8]&(1<<uint(7-i%8)) != 0 {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}

// Board is the shared blackboard. It is written by one player at a time
// (the model is sequential) and read freely by everyone.
type Board struct {
	numPlayers int
	msgs       []Message
	totalBits  int
	perPlayer  []int
	public     *rng.Source
}

// NewBoard creates an empty board for numPlayers players with the given
// public-randomness stream (may be nil for deterministic protocols).
func NewBoard(numPlayers int, public *rng.Source) (*Board, error) {
	if numPlayers <= 0 {
		return nil, fmt.Errorf("blackboard: non-positive player count %d", numPlayers)
	}
	return &Board{
		numPlayers: numPlayers,
		perPlayer:  make([]int, numPlayers),
		public:     public,
	}, nil
}

// reservedMessages caps Reserve: a run under a loose limit reserves this
// many messages and grows from there.
const reservedMessages = 16

// Reserve makes room on the board for the first messages of a run under
// lim: every message it may hold when lim.MaxMessages is at most
// reservedMessages, else reservedMessages of them, and none when the run
// is unlimited. A board otherwise grows from empty by doubling, which for
// the short runs of the networked runtime allocates about twice the bytes
// it keeps.
func (b *Board) Reserve(lim Limits) {
	n := min(lim.MaxMessages, reservedMessages)
	if n > cap(b.msgs)-len(b.msgs) {
		b.msgs = append(make([]Message, 0, len(b.msgs)+n), b.msgs...)
	}
}

// NumPlayers returns k.
func (b *Board) NumPlayers() int { return b.numPlayers }

// Public returns the shared public-randomness stream, or nil if none was
// provided. All players observe the same stream, advanced in board order.
func (b *Board) Public() *rng.Source { return b.public }

// Append writes a message on the board. The message must be well-formed:
// its player in range, its length within the payload, and — per the Message
// contract — every trailing pad bit zero. Pad validation matters because
// Key and TranscriptKey hash only the first Len bits: two messages that
// differ solely in pad bits would collide as transcript keys while carrying
// different bytes, so the board refuses the ambiguity at the door.
func (b *Board) Append(m Message) error {
	if m.Player < 0 || m.Player >= b.numPlayers {
		return fmt.Errorf("blackboard: message from invalid player %d", m.Player)
	}
	if m.Len < 0 || m.Len > len(m.Bits)*8 {
		return fmt.Errorf("blackboard: message length %d exceeds payload of %d bits", m.Len, len(m.Bits)*8)
	}
	if err := checkPadBits(m.Bits, m.Len); err != nil {
		return err
	}
	b.msgs = append(b.msgs, m)
	b.totalBits += m.Len
	b.perPlayer[m.Player] += m.Len
	return nil
}

// checkPadBits verifies that every bit of bits beyond the first n is zero.
func checkPadBits(bits []byte, n int) error {
	if n%8 != 0 {
		if pad := bits[n/8] & (0xff >> uint(n%8)); pad != 0 {
			return fmt.Errorf("blackboard: message has nonzero pad bits in final byte (len %d)", n)
		}
	}
	for i := (n + 7) / 8; i < len(bits); i++ {
		if bits[i] != 0 {
			return fmt.Errorf("blackboard: message has nonzero bytes beyond its %d-bit payload", n)
		}
	}
	return nil
}

// Messages returns the messages written so far (shared slice; callers must
// not mutate).
func (b *Board) Messages() []Message { return b.msgs }

// NumMessages returns the count of messages written.
func (b *Board) NumMessages() int { return len(b.msgs) }

// TotalBits returns the communication cost so far.
func (b *Board) TotalBits() int { return b.totalBits }

// PlayerBits returns the bits written by one player so far.
func (b *Board) PlayerBits(player int) int {
	if player < 0 || player >= b.numPlayers {
		return 0
	}
	return b.perPlayer[player]
}

// TranscriptKey returns a string identifying the full board contents,
// usable as a histogram key for transcript distributions.
func (b *Board) TranscriptKey() string {
	var s strings.Builder
	for _, m := range b.msgs {
		s.WriteString(m.Key())
		s.WriteByte('|')
	}
	return s.String()
}

// SameTranscript reports whether o holds the same messages as b, in the
// same order: the TranscriptKey equality, compared in place. Append keeps
// pad bits zero, so equal payload bytes mean equal bits.
func (b *Board) SameTranscript(o *Board) bool {
	if len(b.msgs) != len(o.msgs) {
		return false
	}
	for i, m := range b.msgs {
		n := o.msgs[i]
		if m.Player != n.Player || m.Len != n.Len || !bytes.Equal(m.Bits[:(m.Len+7)/8], n.Bits[:(n.Len+7)/8]) {
			return false
		}
	}
	return true
}

// Player is a protocol participant: given the board, it produces its next
// message. Implementations close over the player's private input and
// private randomness.
type Player interface {
	Speak(b *Board) (Message, error)
}

// Scheduler decides whose turn it is from the public board contents, per
// the model: "the current contents of the blackboard determine whose turn
// it is to speak next".
type Scheduler interface {
	// Next returns the next speaker, or done=true when the protocol halts.
	Next(b *Board) (speaker int, done bool, err error)
}

// Limits guards against runaway protocols during development and failure
// injection. Zero fields mean "no limit". Limits are enforced *before* a
// message is appended: an execution that would exceed a limit fails with
// the offending message rejected, so the board never holds more than
// MaxMessages messages or MaxBits bits.
type Limits struct {
	MaxMessages int
	MaxBits     int
}

// Errors returned by Run.
var (
	ErrMessageLimit = errors.New("blackboard: message limit exceeded")
	ErrBitLimit     = errors.New("blackboard: bit limit exceeded")
)

// Result captures a finished execution.
type Result struct {
	Board *Board
}

// Run executes a protocol: it repeatedly asks the scheduler for the next
// speaker and appends that player's message until the scheduler reports
// completion. The returned Result owns the final board. Limits are checked
// before each append (see Limits); an execution that would exceed one fails
// without the oversized message on the board. Run records no telemetry:
// a driver publishes a run's board accounting with Stepper.Record when the
// run ends, as the networked runtime does.
func Run(sched Scheduler, players []Player, public *rng.Source, lim Limits) (*Result, error) {
	st, err := NewStepper(sched, len(players), public, lim)
	if err != nil {
		return nil, err
	}
	for {
		speaker, done, err := st.Next()
		if err != nil {
			return nil, err
		}
		if done {
			return &Result{Board: st.Board()}, nil
		}
		msg, err := players[speaker].Speak(st.Board())
		if err != nil {
			return nil, fmt.Errorf("blackboard: player %d: %w", speaker, err)
		}
		if err := st.Deliver(msg); err != nil {
			return nil, err
		}
	}
}

// RoundRobin is a Scheduler that cycles players 0..k-1 until a stop
// predicate on the board holds. Many protocols in the paper (including the
// Section 5 protocol's cycles) are round-robin with a board-determined stop.
type RoundRobin struct {
	K    int
	Stop func(b *Board) (bool, error)
}

// Next implements Scheduler.
func (r *RoundRobin) Next(b *Board) (int, bool, error) {
	if r.K <= 0 {
		return 0, false, fmt.Errorf("blackboard: round-robin over %d players", r.K)
	}
	if r.Stop != nil {
		stop, err := r.Stop(b)
		if err != nil {
			return 0, false, err
		}
		if stop {
			return 0, true, nil
		}
	}
	return b.NumMessages() % r.K, false, nil
}

var _ Scheduler = (*RoundRobin)(nil)

// FuncPlayer adapts a closure to the Player interface.
type FuncPlayer func(b *Board) (Message, error)

// Speak implements Player.
func (f FuncPlayer) Speak(b *Board) (Message, error) { return f(b) }

var _ Player = (FuncPlayer)(nil)

// FuncScheduler adapts a closure to the Scheduler interface.
type FuncScheduler func(b *Board) (int, bool, error)

// Next implements Scheduler.
func (f FuncScheduler) Next(b *Board) (int, bool, error) { return f(b) }

var _ Scheduler = (FuncScheduler)(nil)
