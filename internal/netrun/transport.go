package netrun

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
)

// Link is one endpoint of a bidirectional frame pipe between two nodes of
// a topology. Links carry raw frames only — ordering, acknowledgement,
// deduplication and fault tolerance live in the endpoint layer above
// (wire.go) — and deliver them by push: Attach names the function that
// takes every frame the peer sends, in order, and then, once the link has
// been closed from either side or has failed, one last call with a nil
// frame and the error. Attach is called once on each end, before either
// end sends.
//
// Two rules keep a run of many links deadlock-free. Send never waits on
// the peer: the in-process link calls the peer's receive function on the
// sender's goroutine, and a stream link queues the frame for its writer
// goroutine. A receive function never blocks, because it may run inside
// the peer's Send, and it may itself Send back (an ack). Both ends of a
// link may send at once, so no caller holds a lock across a Send.
//
// Send is done with frame when it returns: the in-process link has handed
// it to the peer's receive function, a stream link has copied it. What the
// receive function keeps of a frame is its own business; the endpoint
// keeps a data frame's payload and nothing of an ack or nack, so it packs
// every control frame it sends into one reused buffer.
type Link interface {
	Attach(receive func(frame []byte, err error))
	Send(frame []byte) error
	Close() error
}

// Transport creates the physical links of a run.
type Transport interface {
	// Name identifies the transport in stats and CLI flags.
	Name() string
	// Open creates k link pairs, one per topology link: the run attaches
	// coord[i] to the higher node id of link i (the coordinator, on the
	// star) and players[i] to the lower.
	Open(k int) (coord, players []Link, err error)
}

// ErrLinkClosed is returned by link operations after Close (or after the
// peer closed a paired in-process link).
var ErrLinkClosed = errors.New("netrun: link closed")

// maxFrameBytes bounds a single frame on stream transports; protocol
// messages are small (the optimal DISJ protocol's largest batch is a few
// hundred bytes), so anything near this size indicates stream corruption.
const maxFrameBytes = 1 << 22

// ---------------------------------------------------------------------------
// In-process transport (the default).

// ChanTransport connects the nodes in process: a link's Send hands the
// frame to the peer endpoint's receive function directly, on the sender's
// goroutine. It is the default transport: no copies, no syscalls and no
// goroutines of its own, and since the receiver acks inside that call, a
// frame's ack is back before Send returns and the only goroutine a frame
// wakes is the node it is for.
type ChanTransport struct{}

// NewChanTransport returns the in-process transport.
func NewChanTransport() *ChanTransport { return &ChanTransport{} }

// Name implements Transport.
func (t *ChanTransport) Name() string { return "chan" }

// Open implements Transport.
func (t *ChanTransport) Open(k int) ([]Link, []Link, error) {
	if k <= 0 {
		return nil, nil, fmt.Errorf("netrun: transport opened for %d players", k)
	}
	coord := make([]Link, k)
	players := make([]Link, k)
	pairs := make([]chanPair, k)
	for i := range pairs {
		p := &pairs[i]
		p.ends[0].pair, p.ends[0].peer = p, &p.ends[1]
		p.ends[1].pair, p.ends[1].peer = p, &p.ends[0]
		coord[i], players[i] = &p.ends[0], &p.ends[1]
	}
	return coord, players, nil
}

// chanPair is one in-process link: its two ends and the flag they share,
// so closing either end severs the link for both — mirroring a broken
// connection.
type chanPair struct {
	closed atomic.Bool
	ends   [2]chanLink
}

// chanLink is one end of a chanPair.
type chanLink struct {
	pair    *chanPair
	peer    *chanLink
	receive func(frame []byte, err error)
}

func (l *chanLink) Attach(receive func(frame []byte, err error)) { l.receive = receive }

func (l *chanLink) Send(frame []byte) error {
	if l.pair.closed.Load() {
		return ErrLinkClosed
	}
	l.peer.receive(frame, nil)
	return nil
}

// Close severs the link and tells both ends, on the closing goroutine.
func (l *chanLink) Close() error {
	if l.pair.closed.CompareAndSwap(false, true) {
		l.receive(nil, ErrLinkClosed)
		l.peer.receive(nil, ErrLinkClosed)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Stream transports: net.Pipe and TCP loopback, sharing one length-prefixed
// wire codec.

// connLink adapts a net.Conn into a Link with a length-prefixed codec:
// every frame is a 4-byte big-endian length followed by that many bytes.
// Each side runs two goroutines. The reader, started by Attach, passes
// every frame it reads to the receive function. The writer, started with
// the link, puts queued frames on the conn in order, so Send never blocks:
// on a synchronous net.Pipe, two ends whose readers both waited to write
// an ack to the other would deadlock.
type connLink struct {
	conn net.Conn
	out  mailbox[[]byte] // length-prefixed frames for the writer
	// closing is closed by Close; the writer then writes what is queued
	// and exits, closing written.
	closing   chan struct{}
	closeOnce sync.Once
	written   chan struct{}
}

func newConnLink(conn net.Conn) *connLink {
	l := &connLink{conn: conn, out: newMailbox[[]byte](), closing: make(chan struct{}), written: make(chan struct{})}
	go l.writeLoop()
	return l
}

func (l *connLink) Attach(receive func(frame []byte, err error)) { go l.readLoop(receive) }

// Send queues one frame for the writer; once the writer has stopped it
// fails.
func (l *connLink) Send(frame []byte) error {
	if len(frame) > maxFrameBytes {
		return fmt.Errorf("netrun: frame of %d bytes exceeds wire limit", len(frame))
	}
	select {
	case <-l.written:
		return ErrLinkClosed
	default:
	}
	buf := make([]byte, 4+len(frame))
	binary.BigEndian.PutUint32(buf[:4], uint32(len(frame)))
	copy(buf[4:], frame)
	l.out.put(buf)
	return nil
}

// writeLoop is the conn's only writer. One Write per frame keeps frames
// contiguous. A failed write closes the conn, so the reader reports the
// failure.
func (l *connLink) writeLoop() {
	defer close(l.written)
	for {
		buf, err := l.out.next(nil, 0, l.closing)
		if err != nil {
			return
		}
		if _, err := l.conn.Write(buf); err != nil {
			l.conn.Close()
			return
		}
	}
}

// readLoop is the conn's only reader. It hands every frame to receive and
// ends with the error that stopped it.
func (l *connLink) readLoop(receive func(frame []byte, err error)) {
	for {
		frame, err := l.recv()
		if err != nil {
			receive(nil, err)
			return
		}
		receive(frame, nil)
	}
}

func (l *connLink) recv() ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(l.conn, hdr[:]); err != nil {
		return nil, fmt.Errorf("netrun: wire recv: %w", err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrameBytes {
		return nil, fmt.Errorf("netrun: inbound frame of %d bytes exceeds wire limit", n)
	}
	frame := make([]byte, n)
	if _, err := io.ReadFull(l.conn, frame); err != nil {
		return nil, fmt.Errorf("netrun: wire recv body: %w", err)
	}
	return frame, nil
}

// Close lets the writer put what is already queued on the wire, then
// closes the conn, which stops the reader on both sides. Flushing first
// keeps a frame's injected duplicate, queued behind the frame, from being
// lost to a teardown that started once the frame was acked.
func (l *connLink) Close() error {
	l.closeOnce.Do(func() { close(l.closing) })
	<-l.written
	return l.conn.Close()
}

// PipeTransport connects each player over a synchronous in-memory duplex
// stream (net.Pipe) with the length-prefixed codec — the full wire path
// without a socket.
type PipeTransport struct{}

// NewPipeTransport returns the net.Pipe transport.
func NewPipeTransport() *PipeTransport { return &PipeTransport{} }

// Name implements Transport.
func (t *PipeTransport) Name() string { return "pipe" }

// Open implements Transport.
func (t *PipeTransport) Open(k int) ([]Link, []Link, error) {
	if k <= 0 {
		return nil, nil, fmt.Errorf("netrun: transport opened for %d players", k)
	}
	coord := make([]Link, k)
	players := make([]Link, k)
	for i := 0; i < k; i++ {
		c, p := net.Pipe()
		coord[i] = newConnLink(c)
		players[i] = newConnLink(p)
	}
	return coord, players, nil
}

// TCPTransport connects each player over a loopback TCP connection with
// the length-prefixed codec: real sockets, real kernel buffering, real
// per-connection goroutine wakeups. It listens on an ephemeral loopback
// port.
type TCPTransport struct{}

// NewTCPTransport returns the TCP loopback transport.
func NewTCPTransport() *TCPTransport { return &TCPTransport{} }

// Name implements Transport.
func (t *TCPTransport) Name() string { return "tcp" }

// Open implements Transport. Each dialed connection introduces itself with
// a one-byte player index so accept order cannot scramble link identity.
func (t *TCPTransport) Open(k int) ([]Link, []Link, error) {
	if k <= 0 {
		return nil, nil, fmt.Errorf("netrun: transport opened for %d players", k)
	}
	if k > 255 {
		return nil, nil, fmt.Errorf("netrun: tcp transport supports at most 255 players, got %d", k)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, fmt.Errorf("netrun: tcp listen: %w", err)
	}
	defer ln.Close()

	players := make([]Link, k)
	dialErr := make(chan error, 1)
	go func() {
		for i := 0; i < k; i++ {
			c, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				dialErr <- fmt.Errorf("netrun: tcp dial %d: %w", i, err)
				return
			}
			if _, err := c.Write([]byte{byte(i)}); err != nil {
				c.Close()
				dialErr <- fmt.Errorf("netrun: tcp handshake %d: %w", i, err)
				return
			}
			players[i] = newConnLink(c)
		}
		dialErr <- nil
	}()

	coord := make([]Link, k)
	cleanup := func() {
		for _, l := range coord {
			if l != nil {
				l.Close()
			}
		}
		<-dialErr
		for _, l := range players {
			if l != nil {
				l.Close()
			}
		}
	}
	for i := 0; i < k; i++ {
		c, err := ln.Accept()
		if err != nil {
			cleanup()
			return nil, nil, fmt.Errorf("netrun: tcp accept: %w", err)
		}
		var idx [1]byte
		if _, err := io.ReadFull(c, idx[:]); err != nil {
			c.Close()
			cleanup()
			return nil, nil, fmt.Errorf("netrun: tcp handshake read: %w", err)
		}
		if int(idx[0]) >= k || coord[idx[0]] != nil {
			c.Close()
			cleanup()
			return nil, nil, fmt.Errorf("netrun: tcp handshake announced invalid player %d", idx[0])
		}
		coord[idx[0]] = newConnLink(c)
	}
	if err := <-dialErr; err != nil {
		cleanup()
		return nil, nil, err
	}
	return coord, players, nil
}
