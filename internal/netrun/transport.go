package netrun

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
)

// Link is one endpoint of a bidirectional frame pipe between two nodes of
// a topology. Send delivers one opaque frame to the peer;
// Recv blocks for the next one. Links carry raw frames only — ordering,
// acknowledgement, deduplication and fault tolerance live in the endpoint
// layer above (wire.go). Send and Recv may be called from different
// goroutines, but each of Send and Recv individually needs external
// serialization (the endpoint provides it).
type Link interface {
	Send(frame []byte) error
	Recv() ([]byte, error)
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
// In-process channel transport (the default).

// ChanTransport connects coordinator and players with buffered in-process
// channels. It is the default transport: no serialization overhead beyond
// the frame bytes themselves, no syscalls, and deterministic capacity.
type ChanTransport struct {
	// Buffer is the per-direction channel capacity (0 = the default, 16).
	// The stop-and-wait delivery layer keeps at most a handful of frames in
	// flight per direction (the current frame, its duplicate, a duplicate
	// left over from the previous frame, and acks), and read loops never
	// wait on their consumers, so a link only fills while its reader is
	// descheduled.
	Buffer int
}

// NewChanTransport returns the in-process channel transport.
func NewChanTransport() *ChanTransport { return &ChanTransport{} }

// Name implements Transport.
func (t *ChanTransport) Name() string { return "chan" }

// Open implements Transport.
func (t *ChanTransport) Open(k int) ([]Link, []Link, error) {
	if k <= 0 {
		return nil, nil, fmt.Errorf("netrun: transport opened for %d players", k)
	}
	buffer := t.Buffer
	if buffer <= 0 {
		buffer = 16
	}
	coord := make([]Link, k)
	players := make([]Link, k)
	for i := 0; i < k; i++ {
		toPlayer := make(chan []byte, buffer)
		toCoord := make(chan []byte, buffer)
		done := make(chan struct{})
		var once sync.Once
		closeFn := func() { once.Do(func() { close(done) }) }
		coord[i] = &chanLink{out: toPlayer, in: toCoord, done: done, close: closeFn}
		players[i] = &chanLink{out: toCoord, in: toPlayer, done: done, close: closeFn}
	}
	return coord, players, nil
}

// chanLink is one side of a channel pair. The two sides share the done
// channel, so closing either side severs the link for both — mirroring a
// broken connection.
type chanLink struct {
	out   chan<- []byte
	in    <-chan []byte
	done  chan struct{}
	close func()
}

func (l *chanLink) Send(frame []byte) error {
	select {
	case <-l.done:
		return ErrLinkClosed
	default:
	}
	select {
	case l.out <- frame:
		return nil
	case <-l.done:
		return ErrLinkClosed
	}
}

func (l *chanLink) Recv() ([]byte, error) {
	select {
	case f := <-l.in:
		return f, nil
	case <-l.done:
		// Drain anything that raced with the close so shutdown is not
		// order-sensitive.
		select {
		case f := <-l.in:
			return f, nil
		default:
		}
		return nil, ErrLinkClosed
	}
}

func (l *chanLink) Close() error {
	l.close()
	return nil
}

// ---------------------------------------------------------------------------
// Stream transports: net.Pipe and TCP loopback, sharing one length-prefixed
// wire codec.

// connLink adapts a net.Conn into a Link with a length-prefixed codec:
// every frame is a 4-byte big-endian length followed by that many bytes.
// The single Write per frame keeps frames contiguous; the endpoint layer
// serializes concurrent senders.
type connLink struct {
	conn net.Conn
}

func (l *connLink) Send(frame []byte) error {
	if len(frame) > maxFrameBytes {
		return fmt.Errorf("netrun: frame of %d bytes exceeds wire limit", len(frame))
	}
	buf := make([]byte, 4+len(frame))
	binary.BigEndian.PutUint32(buf[:4], uint32(len(frame)))
	copy(buf[4:], frame)
	if _, err := l.conn.Write(buf); err != nil {
		return fmt.Errorf("netrun: wire send: %w", err)
	}
	return nil
}

func (l *connLink) Recv() ([]byte, error) {
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

func (l *connLink) Close() error { return l.conn.Close() }

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
		coord[i] = &connLink{conn: c}
		players[i] = &connLink{conn: p}
	}
	return coord, players, nil
}

// TCPTransport connects each player over a loopback TCP connection with
// the length-prefixed codec: real sockets, real kernel buffering, real
// per-connection goroutine wakeups.
type TCPTransport struct {
	// Addr is the listen address; empty means 127.0.0.1:0 (an ephemeral
	// loopback port).
	Addr string
}

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
	addr := t.Addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
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
			players[i] = &connLink{conn: c}
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
		coord[idx[0]] = &connLink{conn: c}
	}
	if err := <-dialErr; err != nil {
		cleanup()
		return nil, nil, err
	}
	return coord, players, nil
}
