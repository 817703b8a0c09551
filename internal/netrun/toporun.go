package netrun

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"broadcastic/internal/blackboard"
	"broadcastic/internal/faults"
	"broadcastic/internal/rng"
	"broadcastic/internal/telemetry"
	"broadcastic/internal/telemetry/causal"
)

// This file is the explicit-topology runtime: the counterpart of the
// shared-board loop in netrun.go for runs with Config.Topology set.
//
// # Frame flow
//
// Every node (players 0..k-1 and the coordinator at id k) owns one ARQ
// endpoint per incident physical link. Application frames travel inside
// frameRouted envelopes ([src][dst][inner kind][inner payload]); a node
// receiving an envelope addressed elsewhere forwards it to
// Topology.NextHop — store-and-forward with per-hop reliability, so the
// stop-and-wait ARQ, retry budgets and fault plans of wire.go apply to
// each physical link exactly as they do to a player link on the legacy
// path.
//
// # Ordering and determinism
//
// Each endpoint has exactly one receive loop, and forwarding preserves
// arrival order per inbound link, so frames that share a route stay FIFO
// end to end. Because the protocols are turn-based ping-pong, at most one
// application conversation is in flight at a time and the sequence of
// frames on every physical link — and therefore every injector draw and
// wire-bit count — is a pure function of (protocol, topology, seed).
// sendFrom returns at the first hop's ack, so when the schedule ends the
// last turn's syncs may still be relaying (ring); a successful run settles
// every routed frame at its destination, and drains every read loop,
// before it reads the stats.
//
// Syncs carry the board index of their message (encodeIndexedSync): on
// gossip topologies syncs from different speakers race, and the replica
// buffers out-of-order arrivals to append in canonical board order. A
// player announced as speaker first drains pending syncs until its
// replica reaches the turn's message count.
//
// # Delivery modes
//
// DeliverBroadcast mirrors blackboard semantics: after each delivery the
// message reaches every replica (coordinator-echoed SYNCs, or speaker
// gossip on mesh). DeliverCoordinator is the message-passing model of the
// BEOPV lower bounds: messages stop at the hub, replicas stay empty, and
// players must speak from their private input alone — the mode the
// coordinator-model DISJ protocol (internal/disj) is written for.

// DeliveryMode selects how delivered messages propagate on the topology
// path.
type DeliveryMode int

const (
	// DeliverBroadcast mirrors every delivered message to every player's
	// replica — blackboard semantics over explicit links.
	DeliverBroadcast DeliveryMode = iota
	// DeliverCoordinator keeps delivered messages at the hub: players
	// never observe each other's messages, as in the coordinator model.
	DeliverCoordinator
)

// String implements fmt.Stringer.
func (m DeliveryMode) String() string {
	switch m {
	case DeliverBroadcast:
		return "broadcast"
	case DeliverCoordinator:
		return "coordinator"
	}
	return fmt.Sprintf("DeliveryMode(%d)", int(m))
}

// ParseDelivery maps a CLI delivery-mode name to the constant.
func ParseDelivery(name string) (DeliveryMode, error) {
	switch name {
	case "", "broadcast":
		return DeliverBroadcast, nil
	case "coordinator":
		return DeliverCoordinator, nil
	}
	return 0, fmt.Errorf("netrun: unknown delivery mode %q (want broadcast or coordinator)", name)
}

// maxTopoNodes bounds node ids to one envelope byte.
const maxTopoNodes = 256

// routedFrame is one application frame delivered to its destination node.
type routedFrame struct {
	src     int
	kind    byte
	payload []byte
}

// nodeLink is a node's sending side of one incident physical link. The
// mutex serializes the node's application loop and its forwarders, which
// may emit on the same outbound link.
type nodeLink struct {
	ep *endpoint
	mu sync.Mutex
}

func (nl *nodeLink) send(kind byte, payload []byte) error {
	nl.mu.Lock()
	defer nl.mu.Unlock()
	return nl.ep.send(kind, payload)
}

// topoNode is one participant: its id, its incident links keyed by
// neighbor, and the inbox its receive loops deliver to. The node's
// application loop (coordinator or player) is the inbox's one consumer
// and owns timer.
type topoNode struct {
	id    int
	links map[int]*nodeLink
	inbox mailbox[routedFrame]
	timer waitTimer
}

// topoRun holds the wiring of one topology run.
type topoRun struct {
	topo         Topology
	k            int
	nodes        []*topoNode
	done         chan struct{}
	recvDeadline time.Duration

	// inFlight counts routed frames handed to a first hop that have
	// neither reached their destination's inbox nor been given up by a
	// relay; settled gets a token whenever it drops to zero.
	inFlight atomic.Int64
	settled  chan struct{}
}

// sendFrom routes one application frame from node n toward dst: wrap in
// an envelope, hand it to the next hop's link, and let relays carry it on.
func (r *topoRun) sendFrom(n *topoNode, dst int, kind byte, payload []byte) error {
	next := r.topo.NextHop(r.k, n.id, dst)
	nl, ok := n.links[next]
	if !ok {
		return fmt.Errorf("netrun: topology %s routes %d->%d via non-neighbor %d", r.topo.Name(), n.id, dst, next)
	}
	r.inFlight.Add(1)
	return nl.send(frameRouted, encodeRoutedPayload(n.id, dst, kind, payload))
}

// recvAt surfaces the next frame addressed to node n.
func (r *topoRun) recvAt(n *topoNode, deadline time.Duration) (routedFrame, error) {
	rf, err := n.inbox.next(&n.timer, deadline, r.done)
	if err == errNoItem {
		return rf, fmt.Errorf("netrun: node %d: no frame within %v", n.id, deadline)
	}
	return rf, err
}

// land retires one routed frame from inFlight.
func (r *topoRun) land() {
	if r.inFlight.Add(-1) <= 0 {
		select {
		case r.settled <- struct{}{}:
		default:
		}
	}
}

// settle waits, at most d on timer t, until every routed frame has landed.
func (r *topoRun) settle(t *waitTimer, d time.Duration) {
	if r.inFlight.Load() == 0 {
		return
	}
	expired := t.arm(d)
	defer t.disarm()
	for r.inFlight.Load() > 0 {
		select {
		case <-r.settled:
		case <-expired:
			return
		}
	}
}

// serveLink is one endpoint's receive loop at node n: deliver frames
// addressed to n, forward the rest along their route. Exits when the
// endpoint closes.
func (r *topoRun) serveLink(n *topoNode, ep *endpoint) {
	const idleDeadline = time.Hour // teardown closes the link; this is a backstop
	for {
		in, err := ep.recv(idleDeadline)
		if err != nil {
			return
		}
		if in.kind != frameRouted {
			continue // not addressable; drop
		}
		_, dst, _, _, err := decodeRoutedPayload(in.payload)
		if err != nil {
			continue
		}
		if dst == n.id {
			src, _, kind, payload, _ := decodeRoutedPayload(in.payload)
			n.inbox.put(routedFrame{src: src, kind: kind, payload: payload})
			r.land()
			continue
		}
		next := r.topo.NextHop(r.k, n.id, dst)
		nl, ok := n.links[next]
		if !ok {
			r.land()
			return
		}
		if err := nl.send(frameRouted, in.payload); err != nil {
			// Given up. A late ack may mean the next hop has it after all
			// and lands it again; settle then merely ends early.
			r.land()
			return
		}
	}
}

// replicaBoard wraps a player's board replica with an out-of-order buffer
// keyed by board index, so gossip syncs append in canonical order no
// matter the arrival order.
type replicaBoard struct {
	board   *blackboard.Board
	pending map[int]blackboard.Message
}

func (rb *replicaBoard) apply(idx int, msg blackboard.Message) error {
	if idx < rb.board.NumMessages() {
		return fmt.Errorf("netrun: duplicate sync for board index %d", idx)
	}
	if rb.pending == nil {
		rb.pending = make(map[int]blackboard.Message)
	}
	rb.pending[idx] = msg
	for {
		next, ok := rb.pending[rb.board.NumMessages()]
		if !ok {
			return nil
		}
		delete(rb.pending, rb.board.NumMessages())
		if err := rb.board.Append(next); err != nil {
			return err
		}
	}
}

// runTopology executes the protocol on the explicit-topology runtime.
// Invoked by Run when Config.Topology is set, after the shared
// validation; the board-level contract (transcript, bits, outcome
// identical to blackboard.Run) is the same as the legacy path's.
func runTopology(sched blackboard.Scheduler, players []blackboard.Player, public *rng.Source, cfg Config) (*Result, error) {
	k := len(players)
	topo := cfg.Topology
	if k+1 > maxTopoNodes {
		return nil, fmt.Errorf("netrun: topology runtime supports at most %d players, got %d", maxTopoNodes-1, k)
	}
	if len(cfg.Faults.CrashTurns) > 0 {
		if _, ok := topo.(Star); !ok {
			return nil, fmt.Errorf("netrun: crash faults are supported on the star topology only (a dead relay on %s severs other players' routes)", topo.Name())
		}
	}
	if cfg.Delivery != DeliverBroadcast && cfg.Delivery != DeliverCoordinator {
		return nil, fmt.Errorf("netrun: unknown delivery mode %d", cfg.Delivery)
	}
	links := topo.Links(k)
	if len(links) == 0 {
		return nil, fmt.Errorf("netrun: topology %s has no links for k=%d", topo.Name(), k)
	}
	seen := make(map[LinkID]bool, len(links))
	for _, l := range links {
		if l.A < 0 || l.B > k || l.A >= l.B {
			return nil, fmt.Errorf("netrun: topology %s lists invalid link %v", topo.Name(), l)
		}
		if seen[l] {
			return nil, fmt.Errorf("netrun: topology %s lists link %v twice", topo.Name(), l)
		}
		seen[l] = true
	}

	transport := cfg.Transport
	if transport == nil {
		transport = NewChanTransport()
	}
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = defaultTimeout
	}
	maxRetries := cfg.MaxRetries
	if maxRetries <= 0 {
		maxRetries = defaultMaxRetries
	}

	st, err := blackboard.NewStepper(sched, k, public, cfg.Limits)
	if err != nil {
		return nil, err
	}
	st.SetRecorder(cfg.Recorder)

	// One transport pair per physical link: sideA terminates at the lower
	// node id, sideB at the higher.
	sideA, sideB, err := transport.Open(len(links))
	if err != nil {
		return nil, err
	}

	// One fault stream per link direction: A->B draws from child 2l,
	// B->A from child 2l+1 — the same convention as the legacy path's
	// per-player directions, keyed by link index.
	injAB := make([]*faults.Injector, len(links))
	injBA := make([]*faults.Injector, len(links))
	if cfg.Faults.Enabled() {
		streams := rng.New(cfg.Seed).SplitN(2 * len(links))
		for l := range links {
			injAB[l] = cfg.Faults.NewInjector(streams[2*l])
			injBA[l] = cfg.Faults.NewInjector(streams[2*l+1])
		}
	}

	// Both directions of link l record under netrun.topo.<l>.*, mirroring
	// the per-link Stats breakdown which also sums the two directions.
	epA := make([]*endpoint, len(links))
	epB := make([]*endpoint, len(links))
	r := &topoRun{topo: topo, k: k, done: make(chan struct{}), settled: make(chan struct{}, 1)}
	r.nodes = make([]*topoNode, k+1)
	for id := range r.nodes {
		r.nodes[id] = &topoNode{id: id, links: make(map[int]*nodeLink), inbox: newMailbox[routedFrame]()}
	}
	for l, lid := range links {
		epA[l] = newEndpoint(sideA[l], injAB[l], timeout, maxRetries, cfg.Recorder, cfg.Causal, telemetry.NetrunTopo, l)
		epB[l] = newEndpoint(sideB[l], injBA[l], timeout, maxRetries, cfg.Recorder, cfg.Causal, telemetry.NetrunTopo, l)
		r.nodes[lid.A].links[lid.B] = &nodeLink{ep: epA[l]}
		r.nodes[lid.B].links[lid.A] = &nodeLink{ep: epB[l]}
	}
	var closeOnce sync.Once
	closeAll := func() {
		closeOnce.Do(func() {
			close(r.done)
			closeAndWait(epA, epB)
		})
	}

	// A route of h hops can wait through h links' worth of retransmission
	// budgets (plus injected delays) before its frame arrives.
	hops := topo.MaxHops(k)
	if hops < 1 {
		hops = 1
	}
	r.recvDeadline = time.Duration(hops) * (time.Duration(maxRetries+1)*(8*timeout+cfg.Faults.MaxDelay) + timeout)

	// runMu serializes protocol-state access exactly as on the legacy path.
	var runMu sync.Mutex

	replicas := make([]*replicaBoard, k)
	for i := 0; i < k; i++ {
		board, err := blackboard.NewBoard(k, public)
		if err != nil {
			closeAll()
			return nil, err
		}
		replicas[i] = &replicaBoard{board: board}
	}

	var wg sync.WaitGroup
	for _, n := range r.nodes {
		for _, nl := range n.links {
			wg.Add(1)
			go func(n *topoNode, ep *endpoint) {
				defer wg.Done()
				r.serveLink(n, ep)
			}(n, nl.ep)
		}
	}
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r.playerLoop(i, players[i], replicas[i], &runMu, cfg.Faults.CrashTurn(i), cfg.Delivery)
		}(i)
	}

	coord := r.nodes[CoordinatorNode(k)]
	stats := Stats{
		PerPlayer: make([]PlayerStats, k),
		PerLink:   make([]LinkStats, len(links)),
		Transport: transport.Name(),
		Topology:  topo.Name(),
	}
	finish := func(crashed []int) *Result {
		closeAll()
		wg.Wait()
		for l := range links {
			ls := &stats.PerLink[l]
			ls.Link = links[l]
			ls.WireBits = epA[l].stats.wireBits.Load() + epB[l].stats.wireBits.Load()
			ls.Retries = epA[l].stats.retries.Load() + epB[l].stats.retries.Load()
			ls.BadFrames = epA[l].stats.badFrames.Load() + epB[l].stats.badFrames.Load()
			ls.DupFrames = epA[l].stats.dupDropped.Load() + epB[l].stats.dupDropped.Load()
			if injAB[l] != nil {
				ls.Faults.Add(injAB[l].Counts())
				ls.Faults.Add(injBA[l].Counts())
			}
			stats.WireBits += ls.WireBits
			stats.Faults.Add(ls.Faults)
		}
		stats.BoardBits = st.Board().TotalBits()
		return &Result{Board: st.Board(), Stats: stats, Crashed: crashed}
	}
	crash := func(player int, cause error) (*Result, error) {
		telemetry.Count(cfg.Recorder, telemetry.NetrunCrashes, 1)
		if cfg.Causal.Enabled() {
			cfg.Causal.Fail(causal.NetrunCrash,
				causal.Int("player", player), causal.String("error", cause.Error()))
		}
		res := finish([]int{player})
		return res, &CrashError{Player: player, Cause: cause}
	}
	abort := func(err error) (*Result, error) {
		closeAll()
		wg.Wait()
		return nil, err
	}

	for {
		runMu.Lock()
		speaker, done, err := st.Next()
		runMu.Unlock()
		if err != nil {
			return abort(err)
		}
		if done {
			r.settle(&coord.timer, r.recvDeadline)
			return finish(nil), nil
		}

		turnStart := time.Now()
		if err := r.sendFrom(coord, speaker, frameTurn, encodeTurnPayload(st.Board().NumMessages())); err != nil {
			return crash(speaker, err)
		}
		rf, err := r.recvAt(coord, r.recvDeadline)
		if err != nil {
			return crash(speaker, err)
		}
		switch {
		case rf.kind == frameErr:
			return abort(fmt.Errorf("netrun: player %d: %s", rf.src, rf.payload))
		case rf.kind != frameMsg:
			return abort(fmt.Errorf("netrun: player %d sent unexpected frame kind %d", rf.src, rf.kind))
		case rf.src != speaker:
			return abort(fmt.Errorf("netrun: expected message from player %d, got one from %d", speaker, rf.src))
		}
		msg, err := decodeMessagePayload(rf.payload)
		if err != nil {
			return abort(err)
		}

		runMu.Lock()
		err = st.Deliver(msg)
		runMu.Unlock()
		if err != nil {
			return abort(err)
		}

		// Propagate the delivered message. On gossip topologies the
		// speaker already distributed it; in coordinator mode nobody does.
		if cfg.Delivery == DeliverBroadcast && !topo.Gossip() {
			syncPayload := encodeIndexedSync(st.Board().NumMessages()-1, msg)
			for i := 0; i < k; i++ {
				if err := r.sendFrom(coord, i, frameSync, syncPayload); err != nil {
					return crash(i, err)
				}
			}
		}

		ps := &stats.PerPlayer[speaker]
		ps.Turns++
		latency := time.Since(turnStart)
		ps.Latency += latency
		if cfg.Recorder != nil {
			cfg.Recorder.Count(telemetry.NetrunTurns, 1)
			cfg.Recorder.Observe(telemetry.NetrunTurnNs, float64(latency))
		}
	}
}

// playerLoop runs one player node on the topology path: apply syncs,
// speak on turns (draining late gossip first), gossip its own message on
// gossip topologies, and die silently on a scheduled crash turn. Closing
// the node's endpoints on exit severs its links, which on the star
// topology is how the coordinator notices a crash.
func (r *topoRun) playerLoop(i int, player blackboard.Player, replica *replicaBoard, runMu *sync.Mutex, crashTurn int, mode DeliveryMode) {
	n := r.nodes[i]
	defer func() {
		for _, nl := range n.links {
			nl.ep.close()
		}
	}()
	const idleDeadline = time.Hour // teardown closes the run; this is a backstop
	coordID := CoordinatorNode(r.k)
	turns := 0
	fail := func(err error) {
		r.sendFrom(n, coordID, frameErr, []byte(err.Error()))
	}
	applySync := func(payload []byte) error {
		idx, msg, err := decodeIndexedSync(payload)
		if err != nil {
			return err
		}
		return replica.apply(idx, msg)
	}
	for {
		rf, err := r.recvAt(n, idleDeadline)
		if err != nil {
			return
		}
		switch rf.kind {
		case frameSync:
			if err := applySync(rf.payload); err != nil {
				fail(err)
				return
			}
		case frameTurn:
			if crashTurn >= 0 && turns >= crashTurn {
				// Scheduled crash: vanish without a word. The coordinator
				// notices via the dead link or the recv deadline.
				return
			}
			turns++
			want, err := decodeTurnPayload(rf.payload)
			if err != nil {
				fail(err)
				return
			}
			if mode == DeliverBroadcast {
				// Drain syncs still in flight (gossip races the next turn)
				// until the replica reaches the announced board state.
				for replica.board.NumMessages() < want {
					rf2, err := r.recvAt(n, r.recvDeadline)
					if err != nil {
						fail(err)
						return
					}
					if rf2.kind != frameSync {
						fail(fmt.Errorf("netrun: unexpected frame kind %d while syncing replica", rf2.kind))
						return
					}
					if err := applySync(rf2.payload); err != nil {
						fail(err)
						return
					}
				}
				if replica.board.NumMessages() != want {
					fail(fmt.Errorf("netrun: replica out of sync: %d messages, coordinator has %d", replica.board.NumMessages(), want))
					return
				}
			}
			runMu.Lock()
			msg, err := player.Speak(replica.board)
			runMu.Unlock()
			if err != nil {
				fail(err)
				return
			}
			encoded := encodeMessagePayload(msg)
			if mode == DeliverBroadcast && r.topo.Gossip() {
				// Speaker-distributed sync: send the message to every peer
				// directly, then append the canonical (round-tripped) copy
				// to our own replica.
				idx := replica.board.NumMessages()
				syncPayload := encodeIndexedSync(idx, msg)
				for j := 0; j < r.k; j++ {
					if j == i {
						continue
					}
					if err := r.sendFrom(n, j, frameSync, syncPayload); err != nil {
						return
					}
				}
				canonical, err := decodeMessagePayload(encoded)
				if err != nil {
					fail(err)
					return
				}
				if err := replica.apply(idx, canonical); err != nil {
					fail(err)
					return
				}
			}
			if err := r.sendFrom(n, coordID, frameMsg, encoded); err != nil {
				return
			}
		default:
			fail(fmt.Errorf("netrun: unexpected frame kind %d", rf.kind))
			return
		}
	}
}
