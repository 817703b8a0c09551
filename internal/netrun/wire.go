package netrun

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
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

// linkClosed is the inbound kind a read loop delivers once its link has
// failed, so the node waiting on its inbox learns of it at once. No frame
// on the wire has kind 0.
const linkClosed byte = 0

// packFrame lays out [kind 1B][seq 4B BE][crc32 4B BE][payload]. The
// checksum covers kind, seq and payload (with the crc field zeroed), so a
// flipped bit anywhere in the frame is detected and the frame discarded —
// which the retransmission layer then repairs like a drop.
func packFrame(kind byte, seq uint32, payload []byte) []byte {
	f := make([]byte, 9+len(payload))
	f[0] = kind
	binary.BigEndian.PutUint32(f[1:5], seq)
	copy(f[9:], payload)
	binary.BigEndian.PutUint32(f[5:9], crcOf(f))
	return f
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
	buf := binary.AppendUvarint(nil, uint64(m.Player))
	buf = binary.AppendUvarint(buf, uint64(m.Len))
	return append(buf, m.Bits[:(m.Len+7)/8]...)
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
	buf := binary.AppendUvarint(nil, uint64(index))
	return append(buf, encodeMessagePayload(m)...)
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

// endpointStats are the per-link telemetry counters. Updated atomically:
// the read loop and the sending goroutine touch them concurrently.
type endpointStats struct {
	wireBits   atomic.Int64 // bits put on (or dropped onto) the wire, both directions
	retries    atomic.Int64 // retransmission attempts beyond the first send
	badFrames  atomic.Int64 // frames discarded for checksum/layout failure
	dupDropped atomic.Int64 // duplicate data frames discarded by seq check
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
// Exactly one goroutine calls send; the internal read loop is the only
// reader of the raw link. The read loop hands data frames to its node's
// inbox, an unbounded mailbox it shares with the node's other endpoints,
// so it never waits on the consumer: frames nobody has asked for yet are
// still acked at once.
type endpoint struct {
	raw        Link
	inj        *faults.Injector // nil when link faults are disabled
	timeout    time.Duration
	maxRetries int

	// rec mirrors every stats update into the run's Recorder (nil:
	// disabled). The recorder is driven from the same statements that
	// update the atomics — including the NACK, known-drop and timeout
	// retransmission paths — so recorded counters and Stats never diverge.
	// names holds the per-link metric names, precomputed so the recording
	// path allocates nothing per event.
	rec   telemetry.Recorder
	names linkMetricNames

	// cause attaches hop spans, retry events and fault instants to the
	// run's trace (zero Context: disabled). linkAttr is the precomputed
	// link attribute shared by every record this endpoint emits.
	cause    causal.Context
	linkAttr causal.Attr

	writeMu sync.Mutex // serializes raw.Send between data path and control path
	sendSeq uint32     // owned by the sending goroutine
	recvSeq uint32     // owned by the read loop

	// nackPending suppresses repeat nacks until a good data frame arrives;
	// owned by the read loop.
	nackPending bool
	// peerNackPending is the sender's copy of the peer's nackPending,
	// advanced by the frames it puts on the wire; owned by the sending
	// goroutine.
	peerNackPending bool

	// inbox receives data frames, each tagged with peer, the node id at
	// the far end of the link.
	inbox  *mailbox[inbound]
	peer   int
	ackCh  chan uint32
	nackCh chan struct{}

	// sendTimer is reused by every send wait; the sending goroutine owns it.
	sendTimer waitTimer

	closed    chan struct{}
	closeOnce sync.Once
	readDone  chan struct{} // closed when the read loop has exited

	stats endpointStats
}

// linkMetricNames are the per-link metric names, precomputed at endpoint
// construction; fault is indexed by faults.Kind.
type linkMetricNames struct {
	wireBits, retries, badFrames, dupFrames, ackNs string
	fault                                          [faults.NumKinds]string
}

// newEndpoint builds the ARQ layer over one raw link, the link with index
// link in the run's topology, whose far end is node peer. Its read loop
// delivers data frames to inbox; its metrics are netrun.topo.<link>.*.
func newEndpoint(raw Link, inj *faults.Injector, timeout time.Duration, maxRetries int, rec telemetry.Recorder, cause causal.Context, link int, inbox *mailbox[inbound], peer int) *endpoint {
	ep := &endpoint{
		raw:        raw,
		inj:        inj,
		timeout:    timeout,
		maxRetries: maxRetries,
		rec:        rec,
		cause:      cause,
		linkAttr:   causal.Int("link", link),
		inbox:      inbox,
		peer:       peer,
		ackCh:      make(chan uint32, 64),
		nackCh:     make(chan struct{}, 64),
		closed:     make(chan struct{}),
		readDone:   make(chan struct{}),
	}
	if rec != nil {
		ep.names = linkMetricNames{
			wireBits:  telemetry.Indexed(telemetry.NetrunTopo, link, "wire_bits"),
			retries:   telemetry.Indexed(telemetry.NetrunTopo, link, "retries"),
			badFrames: telemetry.Indexed(telemetry.NetrunTopo, link, "bad_frames"),
			dupFrames: telemetry.Indexed(telemetry.NetrunTopo, link, "dup_frames"),
			ackNs:     telemetry.Indexed(telemetry.NetrunTopo, link, "ack_ns"),
		}
		for k := 0; k < faults.NumKinds; k++ {
			ep.names.fault[k] = telemetry.Indexed(telemetry.NetrunTopo, link, "faults."+faults.Kind(k).String())
		}
	}
	go ep.readLoop()
	return ep
}

// recordWireBits, recordRetry, recordDup and recordFault mirror one stats
// update into the Recorder; each costs one branch when disabled.
func (ep *endpoint) recordWireBits(bits int64) {
	if ep.rec != nil {
		ep.rec.Count(telemetry.NetrunWireBits, bits)
		ep.rec.Count(ep.names.wireBits, bits)
	}
}

func (ep *endpoint) recordRetry() {
	if ep.rec != nil {
		ep.rec.Count(telemetry.NetrunRetries, 1)
		ep.rec.Count(ep.names.retries, 1)
	}
}

// countBad records one discarded frame: one that failed its checksum, or
// a checksummed envelope that does not decode.
func (ep *endpoint) countBad() {
	ep.stats.badFrames.Add(1)
	if ep.rec != nil {
		ep.rec.Count(telemetry.NetrunBadFrames, 1)
		ep.rec.Count(ep.names.badFrames, 1)
	}
}

func (ep *endpoint) recordDup() {
	if ep.rec != nil {
		ep.rec.Count(telemetry.NetrunDupFrames, 1)
		ep.rec.Count(ep.names.dupFrames, 1)
	}
}

func (ep *endpoint) recordFault(kind faults.Kind) {
	if ep.rec != nil {
		ep.rec.Count(telemetry.NetrunFaults, 1)
		ep.rec.Count(ep.names.fault[kind], 1)
	}
	if ep.cause.Enabled() {
		ep.cause.Fault(causal.NetrunFault, ep.linkAttr, causal.String("fault", kind.String()))
	}
}

// close severs the endpoint; a pending send unblocks with an error.
func (ep *endpoint) close() {
	ep.closeOnce.Do(func() {
		close(ep.closed)
		ep.raw.Close()
	})
}

// closeAndWait severs every endpoint, then waits until each read loop has
// drained what its link still held and exited, so the stats are final and
// no goroutine outlives the run.
func closeAndWait(eps ...[]*endpoint) {
	for _, group := range eps {
		for _, ep := range group {
			ep.close()
		}
	}
	for _, group := range eps {
		for _, ep := range group {
			<-ep.readDone
		}
	}
}

// readLoop is the sole reader of the raw link. It acks new data frames and
// hands them to the inbox, nacks corrupted ones, discards duplicates, and
// routes acks and nacks to the sender. When the link fails it tells the
// inbox, so a node waiting on a dead peer does not sit out its deadline.
func (ep *endpoint) readLoop() {
	defer close(ep.readDone)
	for {
		frame, err := ep.raw.Recv()
		if err != nil {
			ep.close()
			ep.inbox.put(inbound{kind: linkClosed, from: ep.peer})
			return
		}
		kind, seq, payload, ok := parseFrame(frame)
		if !ok {
			ep.countBad()
			if !ep.nackPending {
				ep.nackPending = true
				ep.sendControl(frameNack, ep.recvSeq)
			}
			continue
		}
		switch kind {
		case frameAck:
			select {
			case ep.ackCh <- seq:
			default:
				// The sender is not waiting (stale ack from a duplicated
				// frame); drop it.
			}
			continue
		case frameNack:
			select {
			case ep.nackCh <- struct{}{}:
			default:
			}
			continue
		}
		ep.nackPending = false
		if seq <= ep.recvSeq {
			ep.stats.dupDropped.Add(1)
			ep.recordDup()
			continue
		}
		// Stop-and-wait: in-order delivery means the only acceptable new
		// frame is recvSeq+1.
		ep.recvSeq = seq
		ep.sendControl(frameAck, seq)
		// The payload aliases the frame: every frame is freshly allocated
		// per send and never written once it is on the wire.
		ep.inbox.put(inbound{kind: kind, from: ep.peer, payload: payload})
	}
}

// sendControl emits an ack or nack. Control frames are never faulted (see
// the type comment) and never retransmitted.
func (ep *endpoint) sendControl(kind byte, seq uint32) {
	frame := packFrame(kind, seq, nil)
	ep.writeMu.Lock()
	defer ep.writeMu.Unlock()
	ep.stats.wireBits.Add(int64(8 * len(frame)))
	ep.recordWireBits(int64(8 * len(frame)))
	ep.raw.Send(frame) // best effort: a lost control frame surfaces as a send timeout upstream
}

// send delivers one application frame reliably: transmit, await the ack,
// retransmit on known drop (immediately), nack (on receipt) or timeout
// (doubling backoff, capped at 8x the base), up to maxRetries times.
func (ep *endpoint) send(kind byte, payload []byte) error {
	ep.sendSeq++
	seq := ep.sendSeq
	frame := packFrame(kind, seq, payload)
	// Drain nacks left over from an earlier frame's repair (the link is
	// FIFO, so anything queued now predates this frame).
	for {
		select {
		case <-ep.nackCh:
			continue
		default:
		}
		break
	}
	timeout := ep.timeout
	maxTimeout := 8 * ep.timeout
	// The hop span covers first transmission to matching ack, retransmissions
	// included, and its duration is the ack-latency sample. It is ended only
	// on successful delivery, so a hop that exhausted its retry budget (or
	// died with the link) is absent from the dump and the histograms — the
	// retry events and the eventual crash record tell that story instead.
	hop := ep.cause.StartSpan(ep.rec, causal.NetrunHop, ep.linkAttr, causal.String("kind", kindName(kind)))
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			ep.stats.retries.Add(1)
			ep.recordRetry()
			if ep.cause.Enabled() {
				// Parent the retry to its hop so the causal tree shows which
				// delivery the retransmission repaired.
				hop.Context().Event(causal.NetrunRetry, ep.linkAttr, causal.Int("attempt", attempt))
			}
		}
		delivered, err := ep.sendRaw(frame)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrDelivery, err)
		}
		if delivered {
			expired := ep.sendTimer.arm(timeout)
		await:
			for {
				select {
				case ackSeq := <-ep.ackCh:
					if ackSeq == seq {
						ep.sendTimer.disarm()
						ackNs := float64(hop.End())
						if ep.rec != nil {
							ep.rec.Observe(telemetry.NetrunAckNs, ackNs)
							ep.rec.Observe(ep.names.ackNs, ackNs)
						}
						return nil
					}
					// Stale ack for an earlier frame (e.g. from an injected
					// duplicate); keep waiting within this attempt.
				case <-ep.nackCh:
					// The receiver saw a corrupted frame; retransmit now.
					break await
				case <-expired:
					break await
				case <-ep.closed:
					ep.sendTimer.disarm()
					return fmt.Errorf("%w: %v", ErrDelivery, ErrLinkClosed)
				}
			}
			ep.sendTimer.disarm()
		}
		if attempt >= ep.maxRetries {
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

// sendRaw puts one data frame on the wire, applying the injector's
// decision. A dropped frame still counts its wire bits (the sender
// transmitted; the medium ate it), keeping the delivered-bits overhead
// metric honest. delivered=false tells the caller to retransmit without
// waiting, because this side knows no ack or NACK will come: the frame was
// dropped, or it was corrupted while the peer's NACK suppression was on.
func (ep *endpoint) sendRaw(frame []byte) (delivered bool, err error) {
	bits := int64(8 * len(frame))
	if ep.inj == nil {
		ep.writeMu.Lock()
		defer ep.writeMu.Unlock()
		ep.stats.wireBits.Add(bits)
		ep.recordWireBits(bits)
		return true, ep.raw.Send(frame)
	}
	d := ep.inj.Decide(len(frame) * 8)
	if d.Delay > 0 {
		ep.recordFault(faults.Delay)
		time.Sleep(d.Delay)
	}
	out := frame
	if d.CorruptBit >= 0 {
		ep.recordFault(faults.Corrupt)
		out = make([]byte, len(frame))
		copy(out, frame)
		out[d.CorruptBit/8] ^= 1 << uint(7-d.CorruptBit%8)
	}
	ep.writeMu.Lock()
	defer ep.writeMu.Unlock()
	if d.Drop {
		ep.recordFault(faults.Drop)
		ep.stats.wireBits.Add(bits)
		ep.recordWireBits(bits)
		return false, nil
	}
	// Advance the mirror of the peer's NACK suppression exactly as the
	// peer's read loop will when this frame (and its duplicate) arrives: a
	// corrupted frame sets it, NACKing only if it was clear; a good frame
	// clears it. A corruption the peer will not NACK is repaired now.
	corrupted := d.CorruptBit >= 0
	silent := corrupted && ep.peerNackPending
	ep.peerNackPending = corrupted
	ep.stats.wireBits.Add(bits)
	ep.recordWireBits(bits)
	if err := ep.raw.Send(out); err != nil {
		return false, err
	}
	if d.Duplicate {
		ep.recordFault(faults.Duplicate)
		ep.stats.wireBits.Add(bits)
		ep.recordWireBits(bits)
		if err := ep.raw.Send(out); err != nil {
			return false, err
		}
	}
	return !silent, nil
}
