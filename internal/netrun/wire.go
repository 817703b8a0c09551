package netrun

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"broadcastic/internal/blackboard"
	"broadcastic/internal/faults"
	"broadcastic/internal/telemetry"
	"broadcastic/internal/telemetry/causal"
)

// kindName names a frame kind for causal record attributes.
func kindName(kind byte) string {
	switch kind {
	case frameSync:
		return "sync"
	case frameTurn:
		return "turn"
	case frameMsg:
		return "msg"
	case frameErr:
		return "err"
	case frameAck:
		return "ack"
	case frameNack:
		return "nack"
	case frameRouted:
		return "routed"
	default:
		return "unknown"
	}
}

// Frame kinds. A frame is the unit the delivery layer retransmits; the
// coordinator and players exchange exactly one kind per protocol event.
const (
	frameSync   byte = iota + 1 // to a player: board append to mirror
	frameTurn                   // coordinator -> player: your turn to speak
	frameMsg                    // player -> coordinator: the spoken message
	frameErr                    // player -> coordinator: player-side failure
	frameAck                    // either direction: delivery acknowledgement
	frameNack                   // either direction: corrupted frame received, retransmit now
	frameRouted                 // relayed frame: envelope carrying [src][dst][inner kind][inner payload]
)

// linkClosed is the inbound kind an endpoint puts in its node's inbox
// once its link has failed, so the node waiting on the inbox learns of it
// at once. No frame on the wire has kind 0.
const linkClosed byte = 0

// packFrame lays out [kind 1B][seq 4B BE][crc32 4B BE][payload]. The
// checksum covers kind, seq and payload (with the crc field zeroed), so a
// flipped bit anywhere in the frame is detected and the frame discarded —
// which the retransmission layer then repairs like a drop.
func packFrame(kind byte, seq uint32, payload []byte) []byte {
	f := make([]byte, 9+len(payload))
	packFrameInto(f, kind, seq, payload)
	return f
}

// packFrameInto is packFrame into f, which holds exactly 9+len(payload)
// bytes.
func packFrameInto(f []byte, kind byte, seq uint32, payload []byte) {
	f[0] = kind
	binary.BigEndian.PutUint32(f[1:5], seq)
	copy(f[9:], payload)
	binary.BigEndian.PutUint32(f[5:9], crcOf(f))
}

// zeroCRCField stands in for the crc field while the checksum is computed.
var zeroCRCField [4]byte

// crcOf computes the frame checksum with the crc field treated as zero.
func crcOf(f []byte) uint32 {
	crc := crc32.Update(0, crc32.IEEETable, f[:5])
	crc = crc32.Update(crc, crc32.IEEETable, zeroCRCField[:])
	return crc32.Update(crc, crc32.IEEETable, f[9:])
}

// parseFrame validates the layout and checksum; ok=false means the frame
// is malformed or corrupted and must be ignored.
func parseFrame(f []byte) (kind byte, seq uint32, payload []byte, ok bool) {
	if len(f) < 9 {
		return 0, 0, nil, false
	}
	if binary.BigEndian.Uint32(f[5:9]) != crcOf(f) {
		return 0, 0, nil, false
	}
	kind = f[0]
	if kind < frameSync || kind > frameRouted {
		return 0, 0, nil, false
	}
	return kind, binary.BigEndian.Uint32(f[1:5]), f[9:], true
}

// errMalformed reports a payload that is not the encoding of any value.
var errMalformed = errors.New("netrun: malformed payload")

// readUvarint reads one minimally encoded uvarint that fits an int and
// returns it with the rest of p. A minimal encoding ends in a nonzero byte
// unless it is the one-byte zero, so every accepted value has exactly one
// encoding and decoded payloads re-encode to the bytes they came from.
func readUvarint(p []byte) (int, []byte, bool) {
	v, n := binary.Uvarint(p)
	if n <= 0 || (n > 1 && p[n-1] == 0) || v > math.MaxInt {
		return 0, nil, false
	}
	return int(v), p[n:], true
}

// encodeMessagePayload serializes a board message: uvarint player, uvarint
// bit length, then exactly the packed payload bytes. The encoding is
// lossless in both content and length, so replica boards append the same
// bits the coordinator's canonical board sees.
func encodeMessagePayload(m blackboard.Message) []byte {
	return appendMessagePayload(make([]byte, 0, messagePayloadLen(m)), m)
}

// appendMessagePayload appends the encoding of m to buf.
func appendMessagePayload(buf []byte, m blackboard.Message) []byte {
	buf = binary.AppendUvarint(buf, uint64(m.Player))
	buf = binary.AppendUvarint(buf, uint64(m.Len))
	return append(buf, m.Bits[:(m.Len+7)/8]...)
}

// messagePayloadLen is the length of m's encoding, so an encoder
// allocates its buffer once.
func messagePayloadLen(m blackboard.Message) int {
	return uvarintLen(uint64(m.Player)) + uvarintLen(uint64(m.Len)) + (m.Len+7)/8
}

// uvarintLen is the length of x's uvarint encoding.
func uvarintLen(x uint64) int {
	return (bits.Len64(x|1) + 6) / 7
}

// decodeMessagePayload inverts encodeMessagePayload. It accepts only
// canonical encodings: minimal varints, exactly the packed bytes, and zero
// padding bits after the last message bit, as Board.Append requires.
func decodeMessagePayload(payload []byte) (blackboard.Message, error) {
	player, rest, ok := readUvarint(payload)
	if !ok {
		return blackboard.Message{}, fmt.Errorf("%w: message has no valid player", errMalformed)
	}
	bitLen, rest, ok := readUvarint(rest)
	if !ok {
		return blackboard.Message{}, fmt.Errorf("%w: message has no valid bit length", errMalformed)
	}
	want := bitLen / 8
	if bitLen%8 != 0 {
		want++
	}
	if len(rest) != want {
		return blackboard.Message{}, fmt.Errorf("%w: message has %d bytes for %d bits", errMalformed, len(rest), bitLen)
	}
	if bitLen%8 != 0 && rest[want-1]&(0xff>>uint(bitLen%8)) != 0 {
		return blackboard.Message{}, fmt.Errorf("%w: message has nonzero padding bits", errMalformed)
	}
	bits := make([]byte, want)
	copy(bits, rest)
	return blackboard.Message{Player: player, Bits: bits, Len: bitLen}, nil
}

// encodeRoutedPayload wraps an application frame in a routing envelope:
// [src uvarint][dst uvarint][inner kind 1B][inner payload]. Only frames
// that a relay must forward carry one: a frame for a neighbor goes out
// bare, and its receiver takes the source from the link it came in on.
// The envelope bytes are charged to the wire like any other header.
func encodeRoutedPayload(src, dst int, kind byte, payload []byte) []byte {
	buf := make([]byte, 0, 3+len(payload))
	buf = binary.AppendUvarint(buf, uint64(src))
	buf = binary.AppendUvarint(buf, uint64(dst))
	buf = append(buf, kind)
	return append(buf, payload...)
}

// decodeRoutedPayload inverts encodeRoutedPayload for a run whose node ids
// are 0..maxNode. Only protocol-event kinds may travel inside an envelope:
// acks, nacks and nested envelopes are delivery-layer artifacts of a
// single hop.
func decodeRoutedPayload(p []byte, maxNode int) (src, dst int, kind byte, payload []byte, err error) {
	src, rest, ok := readUvarint(p)
	if ok {
		dst, rest, ok = readUvarint(rest)
	}
	if !ok || len(rest) == 0 {
		return 0, 0, 0, nil, fmt.Errorf("%w: routing envelope", errMalformed)
	}
	if src > maxNode || dst > maxNode {
		return 0, 0, 0, nil, fmt.Errorf("%w: envelope names node %d->%d, run has nodes 0..%d", errMalformed, src, dst, maxNode)
	}
	kind = rest[0]
	if kind < frameSync || kind > frameErr {
		return 0, 0, 0, nil, fmt.Errorf("%w: envelope carries inner kind %d", errMalformed, kind)
	}
	return src, dst, kind, rest[1:], nil
}

// encodeIndexedSync prefixes a sync payload with the board index of the
// message it carries. Only gossip topologies (mesh) use it: there syncs
// from different speakers race, and the index restores board order at the
// replica. Star and ring syncs all come from the coordinator along one
// FIFO route, so they arrive in board order and carry no index.
func encodeIndexedSync(index int, m blackboard.Message) []byte {
	buf := make([]byte, 0, uvarintLen(uint64(index))+messagePayloadLen(m))
	return appendMessagePayload(binary.AppendUvarint(buf, uint64(index)), m)
}

// decodeIndexedSync inverts encodeIndexedSync.
func decodeIndexedSync(payload []byte) (int, blackboard.Message, error) {
	idx, rest, ok := readUvarint(payload)
	if !ok {
		return 0, blackboard.Message{}, fmt.Errorf("%w: sync has no valid board index", errMalformed)
	}
	msg, err := decodeMessagePayload(rest)
	if err != nil {
		return 0, blackboard.Message{}, err
	}
	return idx, msg, nil
}

// encodeTurnPayload carries the board's message count at the moment of the
// turn, letting the player verify its replica is in sync before speaking.
func encodeTurnPayload(numMessages int) []byte {
	return binary.AppendUvarint(nil, uint64(numMessages))
}

func decodeTurnPayload(payload []byte) (int, error) {
	v, rest, ok := readUvarint(payload)
	if !ok || len(rest) != 0 {
		return 0, fmt.Errorf("%w: turn", errMalformed)
	}
	return v, nil
}

// ErrDelivery wraps a frame that exhausted its retransmission budget.
var ErrDelivery = errors.New("netrun: delivery failed")

// inbound is one application frame surfaced by the delivery layer, tagged
// with the node it came from: the neighbor it arrived from, or, once a
// node has unwrapped a relayed frame addressed to it, its source.
type inbound struct {
	kind    byte
	from    int
	payload []byte
}

// linkStats are the wire counters of one physical link, both directions
// summed: with the link's fault injectors, the run's only ledger of its
// wire traffic, which Stats reads and the run publishes to its Collector
// when it ends. Updated atomically: the link's two endpoints, their
// senders and the goroutines that deliver to them all touch them
// concurrently.
type linkStats struct {
	wireBits  atomic.Int64 // bits put on (or dropped onto) the wire, both directions
	retries   atomic.Int64 // retransmission attempts beyond the first send
	badFrames atomic.Int64 // frames discarded for checksum/layout failure
	dupFrames atomic.Int64 // duplicate data frames discarded by seq check
}

// wireLink is one physical link of a run: its two endpoints and what they
// share — the link's labels and its wire counters. A run allocates all of
// its links at once.
type wireLink struct {
	labels *linkLabels
	stats  linkStats
	ends   [2]endpoint // the higher node id's end, then the lower's
}

// arqConfig is what every endpoint of a run shares: the retransmission
// budget, the Collector the run publishes to (nil: none; when set, the
// endpoints time their hops and keep the durations), and the trace they
// record into (the zero Context: disabled).
type arqConfig struct {
	timeout    time.Duration
	maxRetries int
	rec        *telemetry.Collector
	cause      causal.Context
}

// endpoint layers reliable, ordered, at-most-once delivery of application
// frames over an unreliable Link: a stop-and-wait ARQ with sequence
// numbers, CRC checksums, per-attempt timeouts with exponential backoff,
// and a bounded retry budget.
//
// Retransmissions have three triggers, fastest first:
//
//   - An injected drop is known to the sending side (the injector decided
//     it), so the sender retransmits immediately — the medium ate the
//     frame, there is nothing to wait for. This keeps fault sweeps paced
//     by the fault model, not the wall clock.
//   - A corrupted frame fails its CRC at the receiver, which answers with
//     a NACK; the sender retransmits on receipt. The receiver suppresses
//     further NACKs until a good data frame arrives, so one repair round
//     triggers exactly one retransmission. The sender mirrors that
//     suppression flag — it knows which of its frames it corrupted — so
//     when it corrupts a frame the receiver will not NACK, it retransmits
//     at once, as for a known drop.
//   - The per-attempt timeout (doubling per retry, capped at 8x) is the
//     backstop for losses neither side can observe: real link failures.
//
// Faults are applied on the send side of data frames only. Acks and nacks
// bypass the injector by design: they carry no protocol content (board
// bits are accounted from data frames alone), and keeping them
// fault-immune makes the retransmission sequence — and therefore every
// wire-level counter — a pure function of the seed. Duplicate data frames
// are discarded silently (no re-ack): with reliable acks, a duplicate can
// only be an injected Duplicate decision, never evidence of a lost ack.
//
// Exactly one goroutine calls send: the node's loop, which is also the
// one sender on the node's other endpoints. The link pushes every inbound
// frame to receive, the endpoint's one receive path on every transport:
// the peer's sending goroutine calls it on the in-process link, a reader
// goroutine on a stream link. receive hands data frames to the node's
// inbox, an unbounded mailbox it shares with the node's other endpoints,
// so it never waits on the consumer: frames nobody has asked for yet are
// still acked at once. Acks and nacks reach send through acked, nacked
// and the wake token, which receive sets without blocking and without a
// lock.
type endpoint struct {
	raw  Link
	inj  *faults.Injector // nil when link faults are disabled
	cfg  *arqConfig
	link *wireLink
	// node is the node the endpoint belongs to, and peer the node id at
	// the far end of the link. The node's loop is the endpoint's one
	// sender, and its ack waits reuse the node's timer. receive puts data
	// frames, tagged with peer, in the node's inbox, and the inbox's
	// ready token doubles as the wake token of a waiting send: whoever
	// takes a token looks again at what it waits for, so a token meant
	// for the other waiter costs one look.
	node *topoNode
	peer int

	// Owned by the sending goroutine: the sequence number of the last
	// frame sent, its copy of the peer's nackPending (advanced by the
	// frames it puts on the wire), and, when the run has a Collector, the
	// duration of every hop it completed, which the run publishes as
	// ack_ns samples when it ends.
	sendSeq         uint32
	peerNackPending bool
	ackNs           []float64

	// Owned by receive's data path, which runs on one goroutine at a time
	// (the peer's sender, or the stream reader): the last accepted
	// sequence number, the flag that suppresses repeat nacks until a good
	// data frame arrives, and the bytes of the ack or nack it sends, which
	// no receiver keeps.
	recvSeq     uint32
	nackPending bool
	control     [9]byte

	// Set by receive's control path: the sequence number of the last ack
	// (acks arrive in order) and whether a nack came since send last
	// looked. The wake token is left whenever either changes or the
	// endpoint closes, so a waiting send looks again.
	acked  atomic.Uint32
	nacked atomic.Bool

	closed atomic.Bool    // set by the first close; a waiting send gives up
	down   sync.WaitGroup // done once receive has taken the link's failure
}

// linkLabels are the metric names and causal attributes of the link with
// a given index in a run's topology: the names a run publishes the link's
// counters and ack-latency samples under, and the attributes of its
// endpoints' trace records. They depend on the index alone, so each is
// built once per process and shared by every run, and recording formats
// and allocates nothing.
type linkLabels struct {
	wireBits, retries, badFrames, dupFrames, ackNs string
	faultName                                      [faults.NumKinds]string

	attr causal.Attr // link=<index>
	// hop holds a hop span's attributes per frame kind (the link and the
	// kind's name), and fault a fault instant's per faults.Kind (the link
	// and the fault's name). Records keep them uncopied.
	hop   [frameRouted + 1][]causal.Attr
	fault [faults.NumKinds][]causal.Attr
}

// labelCache holds the labels of every link index below cachedLinks used
// so far.
var labelCache struct {
	mu     sync.Mutex
	byLink []*linkLabels
}

// cachedLinks bounds labelCache, so one huge run (a mesh of 45 or more
// players) does not pin its labels for the life of the process; its
// further links get fresh labels per run.
const cachedLinks = 1024

// labelsOf returns the labels of link index link.
func labelsOf(link int) *linkLabels {
	if link >= cachedLinks {
		return newLinkLabels(link)
	}
	labelCache.mu.Lock()
	defer labelCache.mu.Unlock()
	for l := len(labelCache.byLink); l <= link; l++ {
		labelCache.byLink = append(labelCache.byLink, newLinkLabels(l))
	}
	return labelCache.byLink[link]
}

func newLinkLabels(link int) *linkLabels {
	name := func(field string) string { return telemetry.Indexed(telemetry.NetrunTopo, link, field) }
	lb := &linkLabels{
		wireBits:  name("wire_bits"),
		retries:   name("retries"),
		badFrames: name("bad_frames"),
		dupFrames: name("dup_frames"),
		ackNs:     name("ack_ns"),
		attr:      causal.Int("link", link),
	}
	for k := range lb.fault {
		fault := faults.Kind(k).String()
		lb.faultName[k] = name("faults." + fault)
		lb.fault[k] = []causal.Attr{lb.attr, causal.String("fault", fault)}
	}
	for kind := range lb.hop {
		lb.hop[kind] = []causal.Attr{lb.attr, causal.String("kind", kindName(byte(kind)))}
	}
	return lb
}

// attach sets ep up as node's end of wl over raw, whose far end is node
// peer, and attaches it: from here on the link delivers to receive, which
// puts data frames in the node's inbox.
func (ep *endpoint) attach(wl *wireLink, raw Link, inj *faults.Injector, cfg *arqConfig, node *topoNode, peer int) {
	ep.raw, ep.inj, ep.cfg, ep.link, ep.node, ep.peer = raw, inj, cfg, wl, node, peer
	ep.down.Add(1)
	raw.Attach(ep.receive)
}

// traceFaults marks every fault the injector decided for one frame in the
// run's trace, one instant per kind, so the trace shows the faults the
// injector counts, a duplicate drawn for a dropped frame included.
func (ep *endpoint) traceFaults(d faults.Decision) {
	if !ep.cfg.cause.Enabled() {
		return
	}
	drawn := [...]bool{
		faults.Drop:      d.Drop,
		faults.Duplicate: d.Duplicate,
		faults.Corrupt:   d.CorruptBit >= 0,
		faults.Delay:     d.Delay > 0,
	}
	for kind, ok := range drawn {
		if ok {
			ep.cfg.cause.Fault(causal.NetrunFault, ep.link.labels.fault[kind]...)
		}
	}
}

// close severs the endpoint; a pending send unblocks with an error. It is
// safe to call again, also from inside the link's Close, which reports the
// failure to receive on the closing goroutine.
func (ep *endpoint) close() {
	if ep.closed.Swap(true) {
		return
	}
	ep.signal()
	ep.raw.Close()
}

// closeAndWait severs both endpoints of every link, then waits until each
// link has reported its failure to its endpoints — after the last frame it
// still held — so the stats are final and no link goroutine outlives the
// run.
func closeAndWait(links []wireLink) {
	for l := range links {
		for e := range links[l].ends {
			links[l].ends[e].close()
		}
	}
	for l := range links {
		for e := range links[l].ends {
			links[l].ends[e].down.Wait()
		}
	}
}

// receive takes one frame from the link, or its failure. It acks new data
// frames and hands them to the inbox, nacks corrupted ones, discards
// duplicates, and passes acks and nacks to the sender. When the link fails
// it tells the inbox, so a node waiting on a dead peer does not sit out
// its deadline. It never blocks: it may run inside the peer's Send, and
// both ends of a link may be sending at once.
func (ep *endpoint) receive(frame []byte, err error) {
	if err != nil {
		ep.close()
		ep.node.inbox.put(inbound{kind: linkClosed, from: ep.peer})
		ep.down.Done()
		return
	}
	kind, seq, payload, ok := parseFrame(frame)
	if !ok {
		ep.link.stats.badFrames.Add(1)
		if !ep.nackPending {
			ep.nackPending = true
			ep.sendControl(frameNack, ep.recvSeq)
		}
		return
	}
	switch kind {
	case frameAck:
		ep.acked.Store(seq)
		ep.signal()
		return
	case frameNack:
		ep.nacked.Store(true)
		ep.signal()
		return
	}
	ep.nackPending = false
	if seq <= ep.recvSeq {
		ep.link.stats.dupFrames.Add(1)
		return
	}
	// Stop-and-wait: in-order delivery means the only acceptable new
	// frame is recvSeq+1.
	ep.recvSeq = seq
	ep.sendControl(frameAck, seq)
	// The payload aliases the frame: every frame is freshly allocated per
	// send and never written once it is on the wire.
	ep.node.inbox.put(inbound{kind: kind, from: ep.peer, payload: payload})
}

// signal leaves the sender a wake token, unless one is already waiting.
func (ep *endpoint) signal() {
	select {
	case ep.node.inbox.ready <- struct{}{}:
	default:
	}
}

// sendControl emits an ack or nack. Control frames are never faulted (see
// the type comment) and never retransmitted. They are packed into the
// endpoint's one control buffer: a Link is done with a frame when Send
// returns, and the receiving end keeps nothing of a control frame.
func (ep *endpoint) sendControl(kind byte, seq uint32) {
	frame := ep.control[:]
	packFrameInto(frame, kind, seq, nil)
	ep.link.stats.wireBits.Add(int64(8 * len(frame)))
	ep.raw.Send(frame) // best effort: a lost control frame surfaces as a send timeout upstream
}

// send delivers one application frame reliably: transmit, await the ack,
// retransmit on known drop (immediately), nack (on receipt) or timeout
// (doubling backoff, capped at 8x the base), up to maxRetries times.
func (ep *endpoint) send(kind byte, payload []byte) error {
	ep.sendSeq++
	seq := ep.sendSeq
	frame := packFrame(kind, seq, payload)
	// A nack left over from an earlier frame's repair predates this frame.
	ep.nacked.Store(false)
	timeout := ep.cfg.timeout
	maxTimeout := 8 * timeout
	// The hop span covers first transmission to matching ack, retransmissions
	// included, and its duration is the ack-latency sample. It is ended only
	// on successful delivery, so a hop that exhausted its retry budget (or
	// died with the link) is absent from the dump and the samples — the
	// retry events and the eventual crash record tell that story instead.
	hop := ep.cfg.cause.StartSpanShared(ep.cfg.rec, causal.NetrunHop, ep.link.labels.hop[kind])
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			ep.link.stats.retries.Add(1)
			if ep.cfg.cause.Enabled() {
				// Parent the retry to its hop so the causal tree shows which
				// delivery the retransmission repaired.
				hop.Context().Event(causal.NetrunRetry, ep.link.labels.attr, causal.Int("attempt", attempt))
			}
		}
		delivered, err := ep.sendRaw(frame)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrDelivery, err)
		}
		if delivered {
			acked, err := ep.await(seq, timeout)
			if err != nil {
				return err
			}
			if acked {
				d := hop.End()
				if ep.cfg.rec != nil {
					ep.ackNs = append(ep.ackNs, float64(d))
				}
				return nil
			}
		}
		if attempt >= ep.cfg.maxRetries {
			return fmt.Errorf("%w: no ack for frame kind %d after %d attempts", ErrDelivery, kind, attempt+1)
		}
		if timeout < maxTimeout {
			timeout *= 2
			if timeout > maxTimeout {
				timeout = maxTimeout
			}
		}
	}
}

// await waits up to d for the ack of frame seq, and reports false when a
// nack or the timeout calls for a retransmission instead. On the
// in-process link the answer came back inside the Send that carried the
// frame, so await finds it before it arms the timer.
func (ep *endpoint) await(seq uint32, d time.Duration) (bool, error) {
	if ep.acked.Load() == seq {
		return true, nil
	}
	if ep.nacked.Swap(false) {
		return false, nil
	}
	expired := ep.node.timer.arm(d)
	defer ep.node.timer.disarm()
	for {
		select {
		case <-ep.node.inbox.ready:
		case <-expired:
			if ep.acked.Load() == seq {
				return true, nil
			}
			// A nack that came with the timeout is for the attempt that
			// timed out, and the retransmission answers both.
			ep.nacked.Store(false)
			return false, nil
		}
		if ep.acked.Load() == seq {
			return true, nil
		}
		if ep.closed.Load() {
			return false, fmt.Errorf("%w: %v", ErrDelivery, ErrLinkClosed)
		}
		if ep.nacked.Swap(false) {
			return false, nil
		}
	}
}

// sendRaw puts one data frame on the wire, applying the injector's
// decision. A dropped frame still counts its wire bits (the sender
// transmitted; the medium ate it), keeping the delivered-bits overhead
// metric honest. delivered=false tells the caller to retransmit without
// waiting, because this side knows no ack or NACK will come: the frame was
// dropped, or it was corrupted while the peer's NACK suppression was on.
func (ep *endpoint) sendRaw(frame []byte) (delivered bool, err error) {
	bits, wireBits := int64(8*len(frame)), &ep.link.stats.wireBits
	if ep.inj == nil {
		wireBits.Add(bits)
		return true, ep.raw.Send(frame)
	}
	d := ep.inj.Decide(len(frame) * 8)
	ep.traceFaults(d)
	if d.Delay > 0 {
		time.Sleep(d.Delay)
	}
	out := frame
	if d.CorruptBit >= 0 {
		out = make([]byte, len(frame))
		copy(out, frame)
		out[d.CorruptBit/8] ^= 1 << uint(7-d.CorruptBit%8)
	}
	if d.Drop {
		wireBits.Add(bits)
		return false, nil
	}
	// Advance the mirror of the peer's NACK suppression exactly as the
	// peer's receive will when this frame (and its duplicate) arrives: a
	// corrupted frame sets it, NACKing only if it was clear; a good frame
	// clears it. A corruption the peer will not NACK is repaired now.
	corrupted := d.CorruptBit >= 0
	silent := corrupted && ep.peerNackPending
	ep.peerNackPending = corrupted
	wireBits.Add(bits)
	if err := ep.raw.Send(out); err != nil {
		return false, err
	}
	if d.Duplicate {
		wireBits.Add(bits)
		if err := ep.raw.Send(out); err != nil {
			return false, err
		}
	}
	return !silent, nil
}
