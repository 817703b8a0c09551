package blackboard

import (
	"errors"
	"testing"

	"broadcastic/internal/encoding"
	"broadcastic/internal/rng"
	"broadcastic/internal/telemetry"
)

// bitMessage builds a one-bit message for tests.
func bitMessage(t *testing.T, player, bit int) Message {
	t.Helper()
	var w encoding.BitWriter
	if err := w.WriteBit(bit); err != nil {
		t.Fatal(err)
	}
	return NewMessage(player, &w)
}

func TestNewBoardValidation(t *testing.T) {
	if _, err := NewBoard(0, nil); err == nil {
		t.Fatal("NewBoard(0) succeeded")
	}
	if _, err := NewBoard(-3, nil); err == nil {
		t.Fatal("NewBoard(-3) succeeded")
	}
}

func TestBoardAccounting(t *testing.T) {
	b, err := NewBoard(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	var w encoding.BitWriter
	_ = w.WriteBits(0b101, 3)
	if err := b.Append(NewMessage(1, &w)); err != nil {
		t.Fatal(err)
	}
	if err := b.Append(bitMessage(t, 2, 1)); err != nil {
		t.Fatal(err)
	}
	if b.TotalBits() != 4 {
		t.Fatalf("TotalBits = %d, want 4", b.TotalBits())
	}
	if b.PlayerBits(1) != 3 || b.PlayerBits(2) != 1 || b.PlayerBits(0) != 0 {
		t.Fatalf("per-player bits = %d,%d,%d", b.PlayerBits(0), b.PlayerBits(1), b.PlayerBits(2))
	}
	if b.PlayerBits(-1) != 0 || b.PlayerBits(3) != 0 {
		t.Fatal("out-of-range PlayerBits nonzero")
	}
	if b.NumMessages() != 2 {
		t.Fatalf("NumMessages = %d", b.NumMessages())
	}
}

func TestAppendValidation(t *testing.T) {
	b, _ := NewBoard(2, nil)
	if err := b.Append(Message{Player: 2, Len: 0}); err == nil {
		t.Fatal("append from invalid player succeeded")
	}
	if err := b.Append(Message{Player: 0, Bits: []byte{0}, Len: 9}); err == nil {
		t.Fatal("append with overlong length succeeded")
	}
	if err := b.Append(Message{Player: 0, Bits: nil, Len: -1}); err == nil {
		t.Fatal("append with negative length succeeded")
	}
}

func TestMessageKeyDistinguishesContent(t *testing.T) {
	a := bitMessage(t, 0, 0)
	b := bitMessage(t, 0, 1)
	c := bitMessage(t, 1, 0)
	if a.Key() == b.Key() {
		t.Fatal("different bits share a key")
	}
	if a.Key() == c.Key() {
		t.Fatal("different players share a key")
	}
}

func TestTranscriptKey(t *testing.T) {
	b1, _ := NewBoard(2, nil)
	b2, _ := NewBoard(2, nil)
	_ = b1.Append(bitMessage(t, 0, 1))
	_ = b2.Append(bitMessage(t, 0, 1))
	if b1.TranscriptKey() != b2.TranscriptKey() {
		t.Fatal("identical boards have different keys")
	}
	_ = b2.Append(bitMessage(t, 1, 0))
	if b1.TranscriptKey() == b2.TranscriptKey() {
		t.Fatal("different boards share a key")
	}
}

// SameTranscript agrees with TranscriptKey equality: same players, same
// lengths and same bits, whatever the capacity of the payload slices.
func TestSameTranscriptMatchesKeys(t *testing.T) {
	msg := func(player int, bits ...int) Message {
		var w encoding.BitWriter
		for _, b := range bits {
			if err := w.WriteBit(b); err != nil {
				t.Fatal(err)
			}
		}
		return NewMessage(player, &w)
	}
	boards := [][]Message{
		{},
		{msg(0, 1)},
		{msg(1, 1)},
		{msg(0, 1, 0)},
		{msg(0, 0)},
		{msg(0, 1), msg(1, 0, 1, 1, 0, 1, 0, 1, 1)},
		{msg(0, 1), msg(1, 0, 1, 1, 0, 1, 0, 1, 0)},
		{msg(0), msg(1)},
	}
	build := func(msgs []Message) *Board {
		b, err := NewBoard(2, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range msgs {
			if err := b.Append(m); err != nil {
				t.Fatal(err)
			}
		}
		return b
	}
	for i, mi := range boards {
		for j, mj := range boards {
			a, b := build(mi), build(mj)
			if got, want := a.SameTranscript(b), a.TranscriptKey() == b.TranscriptKey(); got != want {
				t.Errorf("boards %d and %d: SameTranscript %v, keys equal %v", i, j, got, want)
			}
		}
	}
}

func TestMessageReaderRoundTrip(t *testing.T) {
	var w encoding.BitWriter
	_ = w.WriteBits(0b1101, 4)
	m := NewMessage(0, &w)
	r, err := m.Reader()
	if err != nil {
		t.Fatal(err)
	}
	v, err := r.ReadBits(4)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0b1101 {
		t.Fatalf("read back %04b", v)
	}
}

// echoPlayers: each of k players writes one bit (its index mod 2), and the
// scheduler stops after k messages.
func echoSetup(k int) (Scheduler, []Player) {
	sched := &RoundRobin{
		K:    k,
		Stop: func(b *Board) (bool, error) { return b.NumMessages() >= k, nil },
	}
	players := make([]Player, k)
	for i := 0; i < k; i++ {
		i := i
		players[i] = FuncPlayer(func(b *Board) (Message, error) {
			var w encoding.BitWriter
			if err := w.WriteBit(i % 2); err != nil {
				return Message{}, err
			}
			return NewMessage(i, &w), nil
		})
	}
	return sched, players
}

func TestRunRoundRobin(t *testing.T) {
	const k = 5
	sched, players := echoSetup(k)
	res, err := Run(sched, players, nil, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Board.NumMessages() != k {
		t.Fatalf("messages = %d, want %d", res.Board.NumMessages(), k)
	}
	if res.Board.TotalBits() != k {
		t.Fatalf("bits = %d, want %d", res.Board.TotalBits(), k)
	}
	for i, m := range res.Board.Messages() {
		if m.Player != i%k {
			t.Fatalf("message %d attributed to player %d", i, m.Player)
		}
	}
}

func TestRunMessageLimit(t *testing.T) {
	// A scheduler that never stops must hit the message limit.
	sched := &RoundRobin{K: 2, Stop: func(*Board) (bool, error) { return false, nil }}
	_, players := echoSetup(2)
	_, err := Run(sched, players, nil, Limits{MaxMessages: 10})
	if !errors.Is(err, ErrMessageLimit) {
		t.Fatalf("err = %v, want ErrMessageLimit", err)
	}
}

func TestRunBitLimit(t *testing.T) {
	sched := &RoundRobin{K: 2, Stop: func(*Board) (bool, error) { return false, nil }}
	_, players := echoSetup(2)
	_, err := Run(sched, players, nil, Limits{MaxBits: 5})
	if !errors.Is(err, ErrBitLimit) {
		t.Fatalf("err = %v, want ErrBitLimit", err)
	}
}

func TestRunRejectsMisattributedMessage(t *testing.T) {
	sched := &RoundRobin{K: 2, Stop: func(b *Board) (bool, error) { return b.NumMessages() >= 1, nil }}
	players := []Player{
		FuncPlayer(func(b *Board) (Message, error) {
			var w encoding.BitWriter
			_ = w.WriteBit(0)
			return NewMessage(1, &w), nil // lies about identity
		}),
		FuncPlayer(func(b *Board) (Message, error) { return Message{}, nil }),
	}
	if _, err := Run(sched, players, nil, Limits{}); err == nil {
		t.Fatal("misattributed message accepted")
	}
}

func TestRunPropagatesPlayerError(t *testing.T) {
	wantErr := errors.New("boom")
	sched := &RoundRobin{K: 1, Stop: func(b *Board) (bool, error) { return b.NumMessages() >= 1, nil }}
	players := []Player{FuncPlayer(func(b *Board) (Message, error) { return Message{}, wantErr })}
	_, err := Run(sched, players, nil, Limits{})
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
}

func TestRunPropagatesSchedulerError(t *testing.T) {
	wantErr := errors.New("sched fail")
	bad := schedFunc(func(b *Board) (int, bool, error) { return 0, false, wantErr })
	_, err := Run(bad, []Player{FuncPlayer(func(*Board) (Message, error) { return Message{}, nil })}, nil, Limits{})
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v", err)
	}
}

func TestRunRejectsInvalidSpeaker(t *testing.T) {
	bad := schedFunc(func(b *Board) (int, bool, error) { return 7, false, nil })
	_, err := Run(bad, []Player{FuncPlayer(func(*Board) (Message, error) { return Message{}, nil })}, nil, Limits{})
	if err == nil {
		t.Fatal("invalid speaker accepted")
	}
}

type schedFunc func(b *Board) (int, bool, error)

func (f schedFunc) Next(b *Board) (int, bool, error) { return f(b) }

func TestPublicRandomnessShared(t *testing.T) {
	// Both players read the public stream; the second player must see it
	// advanced past the first player's draw (the stream is shared state).
	public := rng.New(5)
	wantFirst := rng.New(5).Uint64()

	var got []uint64
	sched := &RoundRobin{K: 2, Stop: func(b *Board) (bool, error) { return b.NumMessages() >= 2, nil }}
	players := make([]Player, 2)
	for i := 0; i < 2; i++ {
		i := i
		players[i] = FuncPlayer(func(b *Board) (Message, error) {
			got = append(got, b.Public().Uint64())
			var w encoding.BitWriter
			_ = w.WriteBit(0)
			return NewMessage(i, &w), nil
		})
	}
	if _, err := Run(sched, players, public, Limits{}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("drew %d values", len(got))
	}
	if got[0] != wantFirst {
		t.Fatal("public stream not seeded deterministically")
	}
	if got[0] == got[1] {
		t.Fatal("public stream did not advance between players")
	}
}

func TestRoundRobinValidation(t *testing.T) {
	r := &RoundRobin{K: 0}
	if _, _, err := r.Next(&Board{numPlayers: 1, perPlayer: make([]int, 1)}); err == nil {
		t.Fatal("round-robin over zero players succeeded")
	}
	if _, _, err := (&RoundRobin{K: -4}).Next(&Board{numPlayers: 1, perPlayer: make([]int, 1)}); err == nil {
		t.Fatal("round-robin over negative players succeeded")
	}
	// A non-positive K must also surface through Run, not just direct Next.
	_, players := echoSetup(2)
	if _, err := Run(&RoundRobin{K: 0}, players, nil, Limits{}); err == nil {
		t.Fatal("Run with K=0 round-robin succeeded")
	}
}

func TestRoundRobinStopError(t *testing.T) {
	wantErr := errors.New("stop blew up")
	r := &RoundRobin{K: 2, Stop: func(b *Board) (bool, error) { return false, wantErr }}
	b, _ := NewBoard(2, nil)
	if _, _, err := r.Next(b); !errors.Is(err, wantErr) {
		t.Fatalf("Next err = %v, want wrapped stop error", err)
	}
	_, players := echoSetup(2)
	if _, err := Run(r, players, nil, Limits{}); !errors.Is(err, wantErr) {
		t.Fatalf("Run err = %v, want wrapped stop error", err)
	}
}

func TestPlayerBitsOutOfRange(t *testing.T) {
	b, err := NewBoard(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Append(bitMessage(t, 0, 1)); err != nil {
		t.Fatal(err)
	}
	for _, player := range []int{-1, -100, 2, 3, 1 << 20} {
		if got := b.PlayerBits(player); got != 0 {
			t.Fatalf("PlayerBits(%d) = %d, want 0", player, got)
		}
	}
	if b.PlayerBits(0) != 1 {
		t.Fatalf("PlayerBits(0) = %d, want 1", b.PlayerBits(0))
	}
}

// Regression: Append must reject messages whose trailing pad bits are
// nonzero — Key/TranscriptKey hash only the first Len bits, so such
// messages would alias a well-formed message's transcript key while
// carrying different bytes.
func TestAppendRejectsNonzeroPadBits(t *testing.T) {
	b, _ := NewBoard(2, nil)
	bad := []Message{
		{Player: 0, Bits: []byte{0b10100001}, Len: 3},       // pad bits inside final byte
		{Player: 0, Bits: []byte{0b10100000, 0xff}, Len: 3}, // nonzero byte past payload
		{Player: 0, Bits: []byte{0x01}, Len: 0},             // zero-length with payload bits
	}
	for i, m := range bad {
		if err := b.Append(m); err == nil {
			t.Fatalf("case %d: message with nonzero pad bits accepted", i)
		}
	}
	if b.NumMessages() != 0 {
		t.Fatalf("rejected messages landed on the board: %d", b.NumMessages())
	}
	ok := []Message{
		{Player: 0, Bits: []byte{0b10100000}, Len: 3},
		{Player: 1, Bits: []byte{0b10100000, 0x00}, Len: 3}, // explicit zero padding byte is fine
		{Player: 0, Bits: nil, Len: 0},
	}
	for i, m := range ok {
		if err := b.Append(m); err != nil {
			t.Fatalf("case %d: well-formed message rejected: %v", i, err)
		}
	}
}

// Regression: limits are enforced before the append, so the oversized
// message must not land on the board when Run fails with a limit error.
func TestLimitsRejectBeforeAppend(t *testing.T) {
	sched := &RoundRobin{K: 2, Stop: func(*Board) (bool, error) { return false, nil }}
	_, players := echoSetup(2)

	st, err := NewStepper(sched, 2, nil, Limits{MaxMessages: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		speaker, done, err := st.Next()
		if err != nil || done {
			t.Fatalf("step %d: speaker err=%v done=%v", i, err, done)
		}
		m, err := players[speaker].Speak(st.Board())
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Deliver(m); err != nil {
			t.Fatalf("message %d rejected below the limit: %v", i, err)
		}
	}
	speaker, _, err := st.Next()
	if err != nil {
		t.Fatal(err)
	}
	m, _ := players[speaker].Speak(st.Board())
	if err := st.Deliver(m); !errors.Is(err, ErrMessageLimit) {
		t.Fatalf("4th delivery err = %v, want ErrMessageLimit", err)
	}
	if st.Board().NumMessages() != 3 {
		t.Fatalf("board holds %d messages after rejected delivery, want 3", st.Board().NumMessages())
	}

	stBits, err := NewStepper(sched, 2, nil, Limits{MaxBits: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		speaker, _, err := stBits.Next()
		if err != nil {
			t.Fatal(err)
		}
		m, _ := players[speaker].Speak(stBits.Board())
		if err := stBits.Deliver(m); err != nil {
			t.Fatal(err)
		}
	}
	speaker, _, err = stBits.Next()
	if err != nil {
		t.Fatal(err)
	}
	m, _ = players[speaker].Speak(stBits.Board())
	if err := stBits.Deliver(m); !errors.Is(err, ErrBitLimit) {
		t.Fatalf("over-budget delivery err = %v, want ErrBitLimit", err)
	}
	if stBits.Board().TotalBits() != 2 {
		t.Fatalf("board holds %d bits after rejected delivery, want 2", stBits.Board().TotalBits())
	}
}

func TestStepperDrivesRoundRobin(t *testing.T) {
	const k = 3
	sched, players := echoSetup(k)
	st, err := NewStepper(sched, k, nil, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	for {
		speaker, done, err := st.Next()
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
		m, err := players[speaker].Speak(st.Board())
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Deliver(m); err != nil {
			t.Fatal(err)
		}
		steps++
	}
	if steps != k || st.Board().NumMessages() != k {
		t.Fatalf("stepper ran %d steps, board has %d messages, want %d", steps, st.Board().NumMessages(), k)
	}
	if !st.Done() {
		t.Fatal("stepper not done after halt")
	}
	// Next after done keeps reporting done.
	if _, done, err := st.Next(); err != nil || !done {
		t.Fatalf("Next after done: done=%v err=%v", done, err)
	}
	// The stepper's board must match a Run of the same protocol.
	sched2, players2 := echoSetup(k)
	res, err := Run(sched2, players2, nil, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Board().TranscriptKey() != res.Board.TranscriptKey() {
		t.Fatal("stepper and Run transcripts differ")
	}
}

func TestStepperDiscipline(t *testing.T) {
	sched, players := echoSetup(2)
	st, err := NewStepper(sched, 2, nil, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Deliver(bitMessage(t, 0, 0)); err == nil {
		t.Fatal("Deliver with no pending turn succeeded")
	}
	speaker, _, err := st.Next()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Next(); err == nil {
		t.Fatal("Next with a pending delivery succeeded")
	}
	if err := st.Deliver(bitMessage(t, speaker+1, 0)); err == nil {
		t.Fatal("misattributed delivery accepted")
	}
	m, err := players[speaker].Speak(st.Board())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Deliver(m); err != nil {
		t.Fatal(err)
	}
	if _, err := NewStepper(nil, 2, nil, Limits{}); err == nil {
		t.Fatal("nil scheduler accepted")
	}
	if _, err := NewStepper(sched, 0, nil, Limits{}); err == nil {
		t.Fatal("zero players accepted")
	}
}

// A stepper recorded into a Collector counts messages, bits and every
// speaking player's bits exactly; a player that never spoke has no
// counter. Recorded before its scheduler halts, as a crashed or failed
// run is, it shows the same counters and no run-level samples.
func TestStepperRecordsBoardAccounting(t *testing.T) {
	const k = 3
	// step runs the stepper until the scheduler halts or messages are on
	// the board; message i carries i+1 bits.
	step := func(t *testing.T, st *Stepper, messages int) {
		t.Helper()
		for st.Board().NumMessages() < messages {
			speaker, done, err := st.Next()
			if err != nil {
				t.Fatal(err)
			}
			if done {
				return
			}
			var w encoding.BitWriter
			for i := 0; i <= st.Board().NumMessages(); i++ {
				if err := w.WriteBit(i % 2); err != nil {
					t.Fatal(err)
				}
			}
			if err := st.Deliver(NewMessage(speaker, &w)); err != nil {
				t.Fatal(err)
			}
		}
	}
	newStepper := func(t *testing.T) *Stepper {
		t.Helper()
		st, err := NewStepper(FuncScheduler(func(b *Board) (int, bool, error) {
			return b.NumMessages() % 2, b.NumMessages() == 5, nil
		}), k, nil, Limits{})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	checkCounters := func(t *testing.T, col *telemetry.Collector, b *Board, messages, bits int64) {
		t.Helper()
		if got := col.Counter(telemetry.BlackboardMessages); got != messages {
			t.Errorf("messages = %d, want %d", got, messages)
		}
		if got := col.Counter(telemetry.BlackboardBits); got != int64(b.TotalBits()) || got != bits {
			t.Errorf("bits = %d, board has %d, want %d", got, b.TotalBits(), bits)
		}
		for i := 0; i < 2; i++ {
			name := telemetry.Indexed(telemetry.BlackboardPlayer, i, "bits")
			if got := col.Counter(name); got != int64(b.PlayerBits(i)) {
				t.Errorf("%s = %d, board has %d", name, got, b.PlayerBits(i))
			}
		}
		if _, ok := col.Snapshot()[telemetry.Indexed(telemetry.BlackboardPlayer, 2, "bits")]; ok {
			t.Error("a silent player has a bits counter")
		}
	}

	t.Run("halted", func(t *testing.T) {
		col := telemetry.NewCollector()
		st := newStepper(t)
		step(t, st, 6)
		if !st.Done() {
			t.Fatal("scheduler did not halt")
		}
		st.Record(col)
		checkCounters(t, col, st.Board(), 5, 15)
		if got := col.Hist(telemetry.BlackboardRounds); got.Count != 1 || got.Sum != 5 {
			t.Errorf("rounds histogram = %+v, want one run of 5", got)
		}
	})
	t.Run("cut short", func(t *testing.T) {
		col := telemetry.NewCollector()
		st := newStepper(t)
		step(t, st, 3)
		if st.Done() {
			t.Fatal("scheduler halted early")
		}
		st.Record(col)
		checkCounters(t, col, st.Board(), 3, 6)
		for _, name := range []string{telemetry.BlackboardRounds, telemetry.BlackboardRunBits, telemetry.BlackboardPublicDraws} {
			if got := col.Hist(name); got.Count != 0 {
				t.Errorf("%s = %+v before the scheduler halted, want no sample", name, got)
			}
		}
	})
}

// Next and Deliver allocate nothing on a board with room for the message:
// the stepper records no telemetry per message, whatever Collector its
// run is recorded into.
func TestStepperDeliverAllocatesNothing(t *testing.T) {
	const k = 3
	st, err := NewStepper(&RoundRobin{K: k}, k, nil, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	st.Record(telemetry.NewCollector())
	// Room for every append, so the board's own growth is not measured.
	st.board.msgs = make([]Message, 0, 4096)
	msgs := make([]Message, k)
	for i := range msgs {
		msgs[i] = bitMessage(t, i, i%2)
	}
	step := func() {
		speaker, _, err := st.Next()
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Deliver(msgs[speaker]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < k; i++ {
		step()
	}
	if n := testing.AllocsPerRun(1000, step); n != 0 {
		t.Fatalf("Next+Deliver allocates %v times per message", n)
	}
}

// Reserve makes room for every message of a tightly limited run, for
// reservedMessages of a loosely limited one, and for none of an unlimited
// one.
func TestBoardReserve(t *testing.T) {
	for _, tc := range []struct{ limit, want int }{
		{0, 0}, {-1, 0}, {1, 1}, {5, 5}, {reservedMessages, reservedMessages}, {1000, reservedMessages},
	} {
		b, err := NewBoard(2, nil)
		if err != nil {
			t.Fatal(err)
		}
		b.Reserve(Limits{MaxMessages: tc.limit})
		if got := cap(b.Messages()); got != tc.want {
			t.Errorf("limit %d reserves %d messages, want %d", tc.limit, got, tc.want)
		}
	}
	b, _ := NewBoard(2, nil)
	m := bitMessage(t, 0, 1)
	if err := b.Append(m); err != nil {
		t.Fatal(err)
	}
	b.Reserve(Limits{MaxMessages: 4})
	if cap(b.Messages()) < 5 || b.NumMessages() != 1 || b.Messages()[0].Key() != m.Key() {
		t.Fatalf("reserve on a written board: cap %d, %d messages", cap(b.Messages()), b.NumMessages())
	}
}

// Done reports whether the scheduler has halted the protocol.
func (st *Stepper) Done() bool { return st.done }
