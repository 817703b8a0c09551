package netrun

import (
	"sync/atomic"
	"testing"
	"time"

	"broadcastic/internal/blackboard"
)

// forgingLink passes frames through, and once it has received after of
// them it sends forged back along the link, once.
type forgingLink struct {
	Link
	after  int
	forged []byte
	seen   int
	sent   atomic.Bool
}

func (l *forgingLink) Attach(receive func(frame []byte, err error)) {
	l.Link.Attach(func(f []byte, err error) {
		receive(f, err)
		if err != nil {
			return
		}
		if l.seen++; l.seen == l.after && l.Link.Send(l.forged) == nil {
			l.sent.Store(true)
		}
	})
}

// forgingTransport opens chan links and puts link 0's higher-node end
// behind a forgingLink.
type forgingTransport struct {
	*ChanTransport
	link *forgingLink
}

func (t forgingTransport) Open(n int) ([]Link, []Link, error) {
	coord, players, err := t.ChanTransport.Open(n)
	if err != nil {
		return nil, nil, err
	}
	t.link.Link = coord[0]
	coord[0] = t.link
	return coord, players, nil
}

// A CRC-valid envelope addressed to a node the run does not have is
// dropped and counted as a bad frame; the node keeps reading, and the run
// still matches the sequential runtime. On the ring, link 0 joins nodes 0
// and 1 and carries data only from 0 to 1, so a frame node 1 sends back
// is the first data frame node 0 sees on it.
func TestRingDropsMisaddressedEnvelope(t *testing.T) {
	const k = 4
	newProto := func() (blackboard.Scheduler, []blackboard.Player) {
		sched := &blackboard.RoundRobin{K: k, Stop: func(b *blackboard.Board) (bool, error) {
			return b.NumMessages() >= 3*k, nil
		}}
		players := make([]blackboard.Player, k)
		for i := range players {
			i := i
			players[i] = blackboard.FuncPlayer(func(b *blackboard.Board) (blackboard.Message, error) {
				return blackboard.Message{Player: i, Bits: []byte{byte(b.NumMessages()) << 4}, Len: 4}, nil
			})
		}
		return sched, players
	}
	sched, players := newProto()
	ref, err := blackboard.Run(sched, players, nil, blackboard.Limits{})
	if err != nil {
		t.Fatal(err)
	}

	if got := (Ring{}).Links(k)[0]; got != (LinkID{A: 0, B: 1}) {
		t.Fatalf("ring link 0 is %v", got)
	}
	forged := packFrame(frameRouted, 1, encodeRoutedPayload(CoordinatorNode(k), k+5, frameSync,
		encodeMessagePayload(blackboard.Message{Player: 0, Bits: []byte{0x80}, Len: 1})))
	link := &forgingLink{after: 5, forged: forged}
	sched, players = newProto()
	res, err := Run(sched, players, nil, Config{
		Transport: forgingTransport{ChanTransport: NewChanTransport(), link: link},
		Topology:  Ring{},
		Timeout:   time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !link.sent.Load() {
		t.Fatal("the forged envelope was never sent")
	}
	if got := res.Stats.PerLink[0].BadFrames; got != 1 {
		t.Fatalf("link 0 counted %d bad frames, want the one forged envelope", got)
	}
	if ref.Board.TranscriptKey() != res.Board.TranscriptKey() || ref.Board.TotalBits() != res.Board.TotalBits() {
		t.Fatalf("transcripts differ:\nsequential %s\nnetworked  %s", ref.Board.TranscriptKey(), res.Board.TranscriptKey())
	}
}
