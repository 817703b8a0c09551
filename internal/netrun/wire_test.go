package netrun

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"broadcastic/internal/blackboard"
	"broadcastic/internal/faults"
	"broadcastic/internal/rng"
	"broadcastic/internal/telemetry"
	"broadcastic/internal/telemetry/causal"
)

func TestFrameRoundTrip(t *testing.T) {
	payload := []byte{0xde, 0xad, 0xbe, 0xef}
	f := packFrame(frameMsg, 7, payload)
	kind, seq, got, ok := parseFrame(f)
	if !ok || kind != frameMsg || seq != 7 || !bytes.Equal(got, payload) {
		t.Fatalf("round trip: kind=%d seq=%d payload=%x ok=%v", kind, seq, got, ok)
	}
	// Empty payload.
	kind, seq, got, ok = parseFrame(packFrame(frameAck, 1, nil))
	if !ok || kind != frameAck || seq != 1 || len(got) != 0 {
		t.Fatalf("empty round trip: kind=%d seq=%d payload=%x ok=%v", kind, seq, got, ok)
	}
}

func TestParseFrameRejectsCorruption(t *testing.T) {
	f := packFrame(frameSync, 3, []byte{1, 2, 3})
	// Every single-bit flip anywhere in the frame must be caught.
	for bit := 0; bit < 8*len(f); bit++ {
		c := make([]byte, len(f))
		copy(c, f)
		c[bit/8] ^= 1 << uint(7-bit%8)
		if _, _, _, ok := parseFrame(c); ok {
			t.Fatalf("bit flip at %d went undetected", bit)
		}
	}
	if _, _, _, ok := parseFrame(f[:5]); ok {
		t.Fatal("truncated frame accepted")
	}
	if _, _, _, ok := parseFrame(nil); ok {
		t.Fatal("nil frame accepted")
	}
}

func TestMessagePayloadRoundTrip(t *testing.T) {
	msgs := []blackboard.Message{
		{Player: 0, Bits: []byte{0b10110000}, Len: 4},
		{Player: 3, Bits: []byte{0xff, 0x80}, Len: 9},
		{Player: 1, Bits: nil, Len: 0},
	}
	for _, m := range msgs {
		got, err := decodeMessagePayload(encodeMessagePayload(m))
		if err != nil {
			t.Fatalf("decode(%+v): %v", m, err)
		}
		if got.Player != m.Player || got.Len != m.Len || !bytes.Equal(got.Bits, m.Bits[:(m.Len+7)/8]) {
			t.Fatalf("round trip %+v -> %+v", m, got)
		}
	}
	maxUint := binary.AppendUvarint(nil, math.MaxUint64)
	for _, bad := range [][]byte{
		{}, {0x01}, {0x00, 0x09},
		append([]byte{0x00}, maxUint...), // bit length 2^64-1
		append(maxUint, 0x00),            // player 2^64-1
		{0x80, 0x00, 0x00},               // non-minimal player
		{0x00, 0x01, 0x40},               // nonzero padding bit
		{0x00, 0x01, 0x80, 0x00},         // trailing byte
	} {
		if m, err := decodeMessagePayload(bad); err == nil {
			t.Fatalf("malformed payload %x accepted as %+v", bad, m)
		}
	}
	if n, err := decodeTurnPayload(encodeTurnPayload(42)); err != nil || n != 42 {
		t.Fatalf("turn payload: %d, %v", n, err)
	}
	for _, bad := range [][]byte{nil, {5, 0xff}, {0x80, 0x00}, maxUint} {
		if n, err := decodeTurnPayload(bad); err == nil {
			t.Fatalf("malformed turn payload %x accepted as %d", bad, n)
		}
	}
}

func TestRoutedAndSyncPayloads(t *testing.T) {
	const k = 300
	msg := blackboard.Message{Player: 299, Bits: []byte{0xa0}, Len: 3}
	for _, tc := range []struct{ src, dst int }{{k, 0}, {3, k}, {200, 299}} {
		p := encodeRoutedPayload(tc.src, tc.dst, frameSync, encodeMessagePayload(msg))
		src, dst, kind, inner, err := decodeRoutedPayload(p, k)
		if err != nil || src != tc.src || dst != tc.dst || kind != frameSync || !bytes.Equal(inner, encodeMessagePayload(msg)) {
			t.Fatalf("envelope %d->%d decodes as %d->%d kind %d %x, %v", tc.src, tc.dst, src, dst, kind, inner, err)
		}
	}
	for _, bad := range [][]byte{
		{}, {0x01}, {0x01, 0x02},
		encodeRoutedPayload(1, k+5, frameSync, nil), // no such node
		encodeRoutedPayload(k+1, 0, frameSync, nil),
		encodeRoutedPayload(1, 2, frameAck, nil), // not a protocol event
		{0x81, 0x00, 0x02, frameTurn},            // non-minimal src
	} {
		if _, _, _, _, err := decodeRoutedPayload(bad, k); err == nil {
			t.Fatalf("malformed envelope %x accepted", bad)
		}
	}

	idx, got, err := decodeIndexedSync(encodeIndexedSync(7, msg))
	if err != nil || idx != 7 || got.Player != msg.Player || got.Len != msg.Len || !bytes.Equal(got.Bits, msg.Bits) {
		t.Fatalf("indexed sync decodes as %d %+v, %v", idx, got, err)
	}
	for _, bad := range [][]byte{
		nil,
		append(binary.AppendUvarint(nil, math.MaxUint64), encodeMessagePayload(msg)...), // index 2^64-1
		append([]byte{0x87, 0x00}, encodeMessagePayload(msg)...),                        // non-minimal index
		append(encodeIndexedSync(7, msg), 0x00),                                         // trailing byte
	} {
		if idx, m, err := decodeIndexedSync(bad); err == nil {
			t.Fatalf("malformed sync %x accepted as %d %+v", bad, idx, m)
		}
	}
}

// lossyLink drops the first n outbound frames, then passes everything.
type lossyLink struct {
	Link
	drop int
}

func (l *lossyLink) Send(frame []byte) error {
	if l.drop > 0 {
		l.drop--
		return nil
	}
	return l.Link.Send(frame)
}

// newTestLink wires the two ends of one link as a run does, each on a
// node with no other link: the first end over coord, faulted by injCoord,
// the second over player. The link closes when the test ends.
func newTestLink(t *testing.T, coord, player Link, injCoord *faults.Injector, timeout time.Duration, maxRetries int) (*endpoint, *endpoint) {
	t.Helper()
	nodes := make([]topoNode, 2)
	for i := range nodes {
		nodes[i].id = i
		nodes[i].inbox = newMailbox[inbound]()
	}
	wires := make([]wireLink, 1)
	wl := &wires[0]
	wl.labels = labelsOf(0)
	cfg := &arqConfig{timeout: timeout, maxRetries: maxRetries}
	a, b := &wl.ends[0], &wl.ends[1]
	a.attach(wl, coord, injCoord, cfg, &nodes[0], 1)
	b.attach(wl, player, nil, cfg, &nodes[1], 0)
	t.Cleanup(func() { closeAndWait(wires) })
	return a, b
}

// recv waits up to d for the next frame in ep's inbox.
func recv(ep *endpoint, d time.Duration) (inbound, error) {
	var timer waitTimer
	return ep.node.inbox.next(&timer, d, nil)
}

func newEndpointPair(t *testing.T, wrapA func(Link) Link, timeout time.Duration, maxRetries int) (*endpoint, *endpoint) {
	t.Helper()
	coord, players, err := NewChanTransport().Open(1)
	if err != nil {
		t.Fatal(err)
	}
	rawA := coord[0]
	if wrapA != nil {
		rawA = wrapA(rawA)
	}
	return newTestLink(t, rawA, players[0], nil, timeout, maxRetries)
}

func TestEndpointDelivers(t *testing.T) {
	a, b := newEndpointPair(t, nil, 50*time.Millisecond, 2)
	if err := a.send(frameSync, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	in, err := recv(b, time.Second)
	if err != nil || in.kind != frameSync || string(in.payload) != "hello" {
		t.Fatalf("recv = %+v, %v", in, err)
	}
	if got := a.link.stats.retries.Load(); got != 0 {
		t.Fatalf("clean delivery cost %d retries", got)
	}
}

func TestEndpointRetransmits(t *testing.T) {
	a, b := newEndpointPair(t, func(l Link) Link { return &lossyLink{Link: l, drop: 2} }, 10*time.Millisecond, 5)
	if err := a.send(frameTurn, encodeTurnPayload(1)); err != nil {
		t.Fatal(err)
	}
	in, err := recv(b, time.Second)
	if err != nil || in.kind != frameTurn {
		t.Fatalf("recv = %+v, %v", in, err)
	}
	if got := a.link.stats.retries.Load(); got != 2 {
		t.Fatalf("retries = %d, want 2", got)
	}
	// Exactly one copy must surface despite the retransmissions.
	if _, err := recv(b, 50*time.Millisecond); err == nil {
		t.Fatal("duplicate frame surfaced")
	}
}

func TestEndpointGivesUp(t *testing.T) {
	a, _ := newEndpointPair(t, func(l Link) Link { return &lossyLink{Link: l, drop: 1 << 30} }, 5*time.Millisecond, 2)
	err := a.send(frameSync, []byte("x"))
	if !errors.Is(err, ErrDelivery) {
		t.Fatalf("err = %v, want ErrDelivery", err)
	}
	if got := a.link.stats.retries.Load(); got != 2 {
		t.Fatalf("retries = %d, want 2", got)
	}
}

// receive hands data frames to an unbounded mailbox, so frames
// nobody consumes yet are still acked at once: the sender never retries
// and never waits out a timeout, however far the consumer falls behind.
func TestEndpointUnconsumedFrames(t *testing.T) {
	const frames = 1500
	a, b := newEndpointPair(t, nil, time.Second, 3)
	start := time.Now()
	for i := 0; i < frames; i++ {
		if err := a.send(frameSync, []byte{byte(i), byte(i >> 8)}); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	if got := a.link.stats.retries.Load(); got != 0 {
		t.Fatalf("%d unconsumed frames cost %d retries", frames, got)
	}
	if elapsed := time.Since(start); elapsed >= time.Second {
		t.Fatalf("%d sends took %v: a send waited out its timeout", frames, elapsed)
	}
	for i := 0; i < frames; i++ {
		in, err := recv(b, time.Second)
		if err != nil || in.payload[0] != byte(i) || in.payload[1] != byte(i>>8) {
			t.Fatalf("frame %d surfaced as %+v, %v", i, in, err)
		}
	}
}

// A corrupted retransmission reaches the receiver while its NACK
// suppression is on, so no NACK comes back. The sender mirrors that flag
// and retransmits at once instead of waiting out the timeout: with every
// frame corrupted, the whole retry budget is spent in far less than one
// timeout.
func TestEndpointRepairsSilentCorruptionAtOnce(t *testing.T) {
	plan, err := faults.Parse("corrupt=1")
	if err != nil {
		t.Fatal(err)
	}
	coord, players, err := NewChanTransport().Open(1)
	if err != nil {
		t.Fatal(err)
	}
	const timeout, maxRetries = 2 * time.Second, 6
	a, _ := newTestLink(t, coord[0], players[0], plan.NewInjector(rng.New(1)), timeout, maxRetries)
	start := time.Now()
	if err := a.send(frameSync, []byte("x")); !errors.Is(err, ErrDelivery) {
		t.Fatalf("err = %v, want ErrDelivery", err)
	}
	if elapsed := time.Since(start); elapsed >= timeout/2 {
		t.Fatalf("retry budget took %v, want far under the %v timeout", elapsed, timeout)
	}
	if got := a.link.stats.retries.Load(); got != maxRetries {
		t.Fatalf("retries = %d, want %d", got, maxRetries)
	}
}

// Both ends of a link can carry data at once (ring relays, a player's
// frameErr racing a sync). No lock is held across a Send, and neither a
// receive nor a Send waits on the peer, so two endpoints that send to
// each other at once both finish, on every transport, and each side's
// frames surface once and in order.
func TestLinkBidirectional(t *testing.T) {
	const frames = 2000
	for _, tr := range []Transport{NewChanTransport(), NewPipeTransport(), NewTCPTransport()} {
		t.Run(tr.Name(), func(t *testing.T) {
			coord, players, err := tr.Open(1)
			if err != nil {
				if tr.Name() == "tcp" {
					t.Skipf("tcp unavailable: %v", err)
				}
				t.Fatal(err)
			}
			a, b := newTestLink(t, coord[0], players[0], nil, 5*time.Second, 3)
			ends := []*endpoint{a, b}
			sent := make(chan error, len(ends))
			for _, ep := range ends {
				go func() {
					for i := 0; i < frames; i++ {
						if err := ep.send(frameSync, []byte{byte(i), byte(i >> 8)}); err != nil {
							sent <- fmt.Errorf("frame %d: %w", i, err)
							return
						}
					}
					sent <- nil
				}()
			}
			deadline := time.After(30 * time.Second)
			for range ends {
				select {
				case err := <-sent:
					if err != nil {
						t.Fatal(err)
					}
				case <-deadline:
					t.Fatalf("both ends sending %d frames at once did not finish: deadlock", frames)
				}
			}
			for e, ep := range ends {
				for i := 0; i < frames; i++ {
					in, err := recv(ep, time.Second)
					if err != nil || in.payload[0] != byte(i) || in.payload[1] != byte(i>>8) {
						t.Fatalf("end %d: frame %d surfaced as %+v, %v", e, i, in, err)
					}
				}
				if in, err := recv(ep, 10*time.Millisecond); err == nil {
					t.Fatalf("end %d: extra frame %+v", e, in)
				}
			}
		})
	}
}

// Every link index gets its netrun.topo.<l>.* names and causal attributes,
// built once per process below cachedLinks and afresh past it, so the
// cache stays bounded whatever the largest run.
func TestLinkLabels(t *testing.T) {
	for _, link := range []int{0, 7, cachedLinks - 1, cachedLinks, cachedLinks + 9} {
		lb := labelsOf(link)
		if want := telemetry.Indexed(telemetry.NetrunTopo, link, "wire_bits"); lb.wireBits != want {
			t.Errorf("link %d records wire bits under %q, want %q", link, lb.wireBits, want)
		}
		if want := telemetry.Indexed(telemetry.NetrunTopo, link, "faults.drop"); lb.faultName[faults.Drop] != want {
			t.Errorf("link %d records drops under %q, want %q", link, lb.faultName[faults.Drop], want)
		}
		if hop := lb.hop[frameMsg]; len(hop) != 2 || hop[0] != causal.Int("link", link) || hop[1] != causal.String("kind", "msg") {
			t.Errorf("link %d hop attributes %v", link, hop)
		}
	}
	if labelsOf(3) != labelsOf(3) {
		t.Error("the labels of a cached link index were built twice")
	}
	labelCache.mu.Lock()
	cached := len(labelCache.byLink)
	labelCache.mu.Unlock()
	if cached > cachedLinks {
		t.Errorf("label cache holds %d links, bound %d", cached, cachedLinks)
	}
}

func TestMailboxFIFOAndClose(t *testing.T) {
	mb := newMailbox[int]()
	var timer waitTimer
	done := make(chan struct{})
	for i := 0; i < 100; i++ {
		mb.put(i)
	}
	for i := 0; i < 100; i++ {
		if v, err := mb.next(&timer, time.Second, done); err != nil || v != i {
			t.Fatalf("item %d: got %d, %v", i, v, err)
		}
	}
	if _, err := mb.next(&timer, time.Millisecond, done); err != errNoItem {
		t.Fatalf("empty mailbox: err = %v, want errNoItem", err)
	}
	// The timer that just fired is reused by the next wait.
	go mb.put(7)
	if v, err := mb.next(&timer, time.Second, done); err != nil || v != 7 {
		t.Fatalf("waiting take: got %d, %v", v, err)
	}
	// An item queued before the close is still delivered after it.
	mb.put(8)
	close(done)
	if v, err := mb.next(&timer, time.Second, done); err != nil || v != 8 {
		t.Fatalf("take after close: got %d, %v", v, err)
	}
	if _, err := mb.next(&timer, time.Second, done); err != ErrLinkClosed {
		t.Fatalf("closed empty mailbox: err = %v, want ErrLinkClosed", err)
	}
}

// A node inbox is filled by one link loop per incident link at once: every
// item arrives exactly once, in each producer's order.
func TestMailboxConcurrentProducers(t *testing.T) {
	const producers, items = 4, 500
	mb := newMailbox[[2]int]()
	var timer waitTimer
	done := make(chan struct{})
	for p := 0; p < producers; p++ {
		go func(p int) {
			for i := 0; i < items; i++ {
				mb.put([2]int{p, i})
			}
		}(p)
	}
	next := make([]int, producers)
	for n := 0; n < producers*items; n++ {
		v, err := mb.next(&timer, 5*time.Second, done)
		if err != nil {
			t.Fatalf("item %d: %v", n, err)
		}
		if v[1] != next[v[0]] {
			t.Fatalf("producer %d: got item %d, want %d", v[0], v[1], next[v[0]])
		}
		next[v[0]]++
	}
}

func TestTransportsRoundTrip(t *testing.T) {
	type delivery struct {
		frame []byte
		err   error
	}
	for _, tr := range []Transport{NewChanTransport(), NewPipeTransport(), NewTCPTransport()} {
		t.Run(tr.Name(), func(t *testing.T) {
			coord, players, err := tr.Open(3)
			if err != nil {
				if tr.Name() == "tcp" {
					t.Skipf("tcp unavailable: %v", err)
				}
				t.Fatal(err)
			}
			// Every end delivers into a channel of its own, roomy enough
			// that delivery never blocks.
			attach := func(l Link) chan delivery {
				ch := make(chan delivery, 4)
				l.Attach(func(frame []byte, err error) { ch <- delivery{frame, err} })
				return ch
			}
			atCoord := make([]chan delivery, len(coord))
			atPlayer := make([]chan delivery, len(players))
			for i := range coord {
				atCoord[i], atPlayer[i] = attach(coord[i]), attach(players[i])
				defer coord[i].Close()
				defer players[i].Close()
			}
			next := func(ch chan delivery) delivery {
				t.Helper()
				select {
				case d := <-ch:
					return d
				case <-time.After(2 * time.Second):
					t.Fatal("nothing delivered")
				}
				return delivery{}
			}
			// Links must be independent and bidirectional.
			for i := range coord {
				want := []byte{byte(i), 0xaa}
				if err := coord[i].Send(want); err != nil {
					t.Fatalf("link %d: send: %v", i, err)
				}
				if d := next(atPlayer[i]); d.err != nil || !bytes.Equal(d.frame, want) {
					t.Fatalf("link %d: delivered %x, %v", i, d.frame, d.err)
				}
				if err := players[i].Send(want); err != nil {
					t.Fatalf("link %d reverse: send: %v", i, err)
				}
				if d := next(atCoord[i]); d.err != nil || !bytes.Equal(d.frame, want) {
					t.Fatalf("link %d reverse: delivered %x, %v", i, d.frame, d.err)
				}
			}
			for i := range coord {
				if len(atCoord[i])+len(atPlayer[i]) != 0 {
					t.Fatalf("link %d delivered a frame nobody sent", i)
				}
			}
			// Closing one side reports the failure to both ends, and the
			// link refuses further sends.
			coord[0].Close()
			if d := next(atPlayer[0]); d.err == nil {
				t.Fatal("peer of a closed link got a frame, not the failure")
			}
			if d := next(atCoord[0]); d.err == nil {
				t.Fatal("closed end got a frame, not the failure")
			}
			if err := coord[0].Send([]byte{1}); err == nil {
				t.Fatal("send on a closed link succeeded")
			}
		})
	}
}

func TestTransportRejectsBadPlayerCount(t *testing.T) {
	for _, tr := range []Transport{NewChanTransport(), NewPipeTransport(), NewTCPTransport()} {
		if _, _, err := tr.Open(0); err == nil {
			t.Fatalf("%s: Open(0) succeeded", tr.Name())
		}
	}
	if _, _, err := NewTCPTransport().Open(300); err == nil {
		t.Fatal("tcp Open(300) succeeded")
	}
}
