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

// This file is the runtime Run executes, on whichever Topology the run
// is wired with.
//
// # Frame flow
//
// Every node (players 0..k-1 and the coordinator at id k) owns one ARQ
// endpoint per incident physical link. Each link pushes the frames it
// carries to its endpoint's receive, which acks them and puts them in the
// node's inbox, tagged with the neighbor they came from; the node's own
// loop (coordinator or player) is the inbox's one consumer and the one
// sender on all of its endpoints. On the default in-process transport
// receive runs on the sending node's goroutine, inside its Send, and the
// ack is back before Send returns: a hop wakes only the node it is for,
// and a netrun.hop span times the delivery work itself (framing, injected
// faults, retransmissions, the peer's receive), not a goroutine handoff.
// On pipe and TCP a reader goroutine per link end calls receive and a
// writer goroutine puts queued frames on the wire.
//
// A frame for a neighbor goes out bare: the receiver takes its source from
// the link it came in on. Only a frame that must be relayed —
// NextHop(at, dst) != dst, which on the built-in topologies happens on the
// ring alone — travels inside a frameRouted envelope ([src][dst][inner
// kind][inner payload]), and a node that finds an envelope addressed
// elsewhere in its inbox forwards it to Topology.NextHop from its own loop.
// This is store-and-forward with per-hop reliability: the stop-and-wait
// ARQ, retry budgets and fault plans of wire.go apply to each physical
// link on its own. Forwarding from the node loop cannot deadlock, even
// with both ends of a link sending at once: a send waits only for its own
// ack, receive acks every frame at once without waiting on the node or
// taking a lock, and no Send waits on the peer.
//
// # Ordering and determinism
//
// A node's loop sends on each outbound link in the order it takes frames
// from its inbox, and frames that share a route stay FIFO end to end.
// Because the protocols are turn-based ping-pong, at most one application
// conversation is in flight at a time and the sequence of frames on every
// physical link — and therefore every injector draw and wire-bit count —
// is a pure function of (protocol, topology, seed). sendFrom returns at
// the first hop's ack, so when the schedule ends the last turn's syncs
// may still be relaying (ring); a successful run settles every relayed
// frame at its destination, stops every node loop, and only then closes
// the links and waits until each has delivered what it still held, before
// it reads the stats.
//
// Star and ring syncs all leave the coordinator along one FIFO route per
// player, so they arrive in board order. On gossip topologies (mesh)
// syncs from different speakers race, so they carry the board index of
// their message (encodeIndexedSync) and the replica buffers out-of-order
// arrivals to append in canonical board order. A player announced as
// speaker first drains pending syncs until its replica reaches the turn's
// message count.
//
// # Delivery modes
//
// DeliverBroadcast mirrors blackboard semantics: after each delivery the
// message reaches every replica (coordinator-echoed SYNCs, or speaker
// gossip on mesh). DeliverCoordinator is the message-passing model of the
// BEOPV lower bounds: messages stop at the hub, replicas stay empty, and
// players must speak from their private input alone — the mode the
// coordinator-model DISJ protocol (internal/disj) is written for.

// DeliveryMode selects how delivered messages propagate.
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

// topoNode is one participant: its id, its endpoints indexed by neighbor
// id (nil for a node it has no link to), and the inbox they deliver to.
// The node's loop (coordinator or player) is the inbox's one consumer and
// the one sender on every endpoint, and owns timer, which its inbox waits
// and its endpoints' ack waits take turns with. inboxBuf backs the
// inbox's queue until it first holds more frames than that, so a node
// whose queue stays short allocates none. A player node also holds the
// player and its board replica.
type topoNode struct {
	id       int
	links    []*endpoint
	inbox    mailbox[inbound]
	inboxBuf [4]inbound
	timer    waitTimer

	player    blackboard.Player
	replica   replicaBoard
	crashTurn int
}

// link returns the endpoint toward neighbor id, or nil.
func (n *topoNode) link(id int) *endpoint {
	if id < 0 || id >= len(n.links) {
		return nil
	}
	return n.links[id]
}

// topoRun holds the wiring of one run.
type topoRun struct {
	topo         Topology
	k            int
	mode         DeliveryMode
	nodes        []topoNode
	wires        []wireLink
	arq          arqConfig
	done         chan struct{}
	recvDeadline time.Duration

	// loops counts the running player loops. runMu serializes all
	// protocol-state access: Stepper calls on the coordinator and Speak on
	// player goroutines. The turn discipline means there is never
	// contention; the mutex exists for the happens-before edges (shared
	// scheduler/player state, shared public rng) that raw socket I/O does
	// not provide.
	loops sync.WaitGroup
	runMu sync.Mutex

	// inFlight counts relayed frames handed to a first hop that have
	// neither reached their destination nor been given up by a relay;
	// settled gets a token whenever it drops to zero.
	inFlight atomic.Int64
	settled  chan struct{}
}

// sendFrom sends one application frame from node n toward dst: bare to a
// neighbor, inside a routing envelope when a relay must carry it on.
func (r *topoRun) sendFrom(n *topoNode, dst int, kind byte, payload []byte) error {
	next := r.topo.NextHop(r.k, n.id, dst)
	ep := n.link(next)
	if ep == nil {
		return fmt.Errorf("netrun: topology %s routes %d->%d via non-neighbor %d", r.topo.Name(), n.id, dst, next)
	}
	if next == dst {
		return ep.send(kind, payload)
	}
	r.inFlight.Add(1)
	return ep.send(frameRouted, encodeRoutedPayload(n.id, dst, kind, payload))
}

// recvAt returns the next frame addressed to node n, tagged with the node
// that sent it, waiting at most deadline, or until teardown when deadline
// is 0. On the way it forwards frames in transit, and drops envelopes that
// do not decode, counting each as a bad frame of the link it came in on.
func (r *topoRun) recvAt(n *topoNode, deadline time.Duration) (inbound, error) {
	timer := &n.timer
	if deadline == 0 {
		timer = nil
	}
	for {
		in, err := n.inbox.next(timer, deadline, r.done)
		if err == errNoItem {
			return inbound{}, fmt.Errorf("netrun: node %d: no frame within %v", n.id, deadline)
		}
		if err != nil {
			return inbound{}, err
		}
		switch in.kind {
		case linkClosed:
			return inbound{}, fmt.Errorf("netrun: node %d: link to node %d: %w", n.id, in.from, ErrLinkClosed)
		case frameRouted:
		default:
			return in, nil
		}
		src, dst, kind, payload, err := decodeRoutedPayload(in.payload, r.k)
		if err != nil {
			n.links[in.from].link.stats.badFrames.Add(1)
			continue
		}
		if dst == n.id {
			r.land()
			return inbound{kind: kind, from: src, payload: payload}, nil
		}
		next := r.topo.NextHop(r.k, n.id, dst)
		if ep := n.link(next); ep == nil || ep.send(frameRouted, in.payload) != nil {
			// Given up. A late ack may mean the next hop has it after all
			// and lands it again; settle then merely ends early.
			r.land()
		}
	}
}

// land retires one relayed frame from inFlight.
func (r *topoRun) land() {
	if r.inFlight.Add(-1) <= 0 {
		select {
		case r.settled <- struct{}{}:
		default:
		}
	}
}

// settle waits, at most d on timer t, until every relayed frame has landed.
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

// runTopology executes the protocol on cfg.Topology. Run invokes it after
// validating the players and the fault plan and defaulting the topology.
func runTopology(sched blackboard.Scheduler, players []blackboard.Player, public *rng.Source, cfg Config) (*Result, error) {
	k := len(players)
	topo := cfg.Topology
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

	// One transport pair per physical link: the coordinator-side Link
	// terminates at the higher node id B (the coordinator, on the star),
	// the player-side Link at A.
	sideB, sideA, err := transport.Open(len(links))
	if err != nil {
		return nil, err
	}

	// One fault stream per link direction: the direction leaving the
	// higher node id (B->A) draws from child 2l, A->B from child 2l+1. On
	// the star that gives coordinator->player i stream 2i and player
	// i->coordinator stream 2i+1. Injectors exist only when link faults are
	// on, so a fault-free run consumes no randomness.
	var streams []*rng.Source
	if cfg.Faults.Enabled() {
		streams = rng.New(cfg.Seed).SplitN(2 * len(links))
	}

	r := &topoRun{
		topo: topo, k: k, mode: cfg.Delivery,
		nodes:   make([]topoNode, k+1),
		wires:   make([]wireLink, len(links)),
		arq:     arqConfig{timeout: timeout, maxRetries: maxRetries, rec: cfg.Recorder, cause: cfg.Causal},
		done:    make(chan struct{}),
		settled: make(chan struct{}, 1),
	}
	neighbors := make([]*endpoint, (k+1)*(k+1))
	for id := range r.nodes {
		n := &r.nodes[id]
		n.id = id
		n.links = neighbors[id*(k+1) : (id+1)*(k+1) : (id+1)*(k+1)]
		n.inbox = newMailbox[inbound]()
		n.inbox.items = n.inboxBuf[:0]
	}
	// Both directions of link l record under netrun.topo.<l>.*, mirroring
	// the per-link Stats breakdown which also sums the two directions. A
	// hop's ack latency is the one metric recorded per frame: into the
	// run-wide histogram and its link's, through handles resolved here.
	r.arq.ackNs = cfg.Recorder.HistHandle(telemetry.NetrunAckNs)
	for l, lid := range links {
		a, b := &r.nodes[lid.A], &r.nodes[lid.B]
		wl := &r.wires[l]
		wl.labels = labelsOf(l)
		wl.ackNs = cfg.Recorder.HistHandle(wl.labels.ackNs)
		var injBA, injAB *faults.Injector
		if streams != nil {
			injBA, injAB = cfg.Faults.NewInjector(streams[2*l]), cfg.Faults.NewInjector(streams[2*l+1])
		}
		epB, epA := &wl.ends[0], &wl.ends[1]
		epA.attach(wl, sideA[l], injAB, &r.arq, a, b.id)
		epB.attach(wl, sideB[l], injBA, &r.arq, b, a.id)
		a.links[b.id] = epA
		b.links[a.id] = epB
	}

	// A route of h hops can wait through h links' worth of retransmission
	// budgets (plus injected delays) before its frame arrives.
	hops := topo.MaxHops(k)
	if hops < 1 {
		hops = 1
	}
	r.recvDeadline = time.Duration(hops) * (time.Duration(maxRetries+1)*(8*timeout+cfg.Faults.MaxDelay) + timeout)

	// Replicas share the canonical public source: public randomness is a
	// shared resource in the broadcast model, and the ping-pong discipline
	// (under runMu) makes every draw happen in sequential order. In
	// broadcast mode each replica ends as long as the canonical board.
	for i := 0; i < k; i++ {
		n := &r.nodes[i]
		board, err := blackboard.NewBoard(k, public)
		if err != nil {
			r.teardown()
			return nil, err
		}
		if cfg.Delivery == DeliverBroadcast {
			board.Reserve(cfg.Limits)
		}
		n.player, n.replica.board, n.crashTurn = players[i], board, cfg.Faults.CrashTurn(i)
	}

	r.loops.Add(k)
	for i := 0; i < k; i++ {
		go r.playerLoop(&r.nodes[i])
	}

	coord := &r.nodes[CoordinatorNode(k)]
	turnNs := cfg.Recorder.HistHandle(telemetry.NetrunTurnNs)
	turns := 0
	// finish is the one end-of-run step, taken on success, crash and abort
	// alike: it tears the run down, reads its final Stats and publishes
	// them with the board's accounting.
	finish := func(crashed []int) *Result {
		r.teardown()
		stats := Stats{
			PerLink:   make([]LinkStats, len(links)),
			Transport: transport.Name(),
			Topology:  topo.Name(),
		}
		for l := range links {
			ls, wl := &stats.PerLink[l], &r.wires[l]
			ls.Link = links[l]
			ls.WireBits = wl.stats.wireBits.Load()
			ls.Retries = wl.stats.retries.Load()
			ls.BadFrames = wl.stats.badFrames.Load()
			ls.DupFrames = wl.stats.dupFrames.Load()
			for e := range wl.ends {
				if inj := wl.ends[e].inj; inj != nil {
					ls.Faults.Add(inj.Counts())
				}
			}
			stats.WireBits += ls.WireBits
			stats.Faults.Add(ls.Faults)
		}
		stats.BoardBits = st.Board().TotalBits()
		res := &Result{Board: st.Board(), Stats: stats, Crashed: crashed}
		r.publish(cfg.Recorder, res, turns)
		st.Record(cfg.Recorder)
		return res
	}
	crash := func(player int, cause error) (*Result, error) {
		if cfg.Causal.Enabled() {
			// A crash is the unrecoverable failure of the run: mark the
			// instant and trigger the trace's flight-recorder auto-dump.
			cfg.Causal.Fail(causal.NetrunCrash,
				causal.Int("player", player), causal.String("error", cause.Error()))
		}
		res := finish([]int{player})
		return res, &CrashError{Player: player, Cause: cause}
	}
	abort := func(err error) (*Result, error) {
		finish(nil)
		return nil, err
	}

	for {
		r.runMu.Lock()
		speaker, done, err := st.Next()
		r.runMu.Unlock()
		if err != nil {
			return abort(err)
		}
		if done {
			r.settle(&coord.timer, r.recvDeadline)
			return finish(nil), nil
		}

		turn := cfg.Causal.StartSpan(cfg.Recorder, causal.NetrunTurn)
		if err := r.sendFrom(coord, speaker, frameTurn, encodeTurnPayload(st.Board().NumMessages())); err != nil {
			return crash(speaker, err)
		}
		rf, err := r.recvAt(coord, r.recvDeadline)
		if err != nil {
			return crash(speaker, err)
		}
		switch {
		case rf.kind == frameErr:
			return abort(fmt.Errorf("netrun: player %d: %s", rf.from, rf.payload))
		case rf.kind != frameMsg:
			return abort(fmt.Errorf("netrun: player %d sent unexpected frame kind %d", rf.from, rf.kind))
		case rf.from != speaker:
			return abort(fmt.Errorf("netrun: expected message from player %d, got one from %d", speaker, rf.from))
		}
		msg, err := decodeMessagePayload(rf.payload)
		if err != nil {
			return abort(err)
		}

		r.runMu.Lock()
		err = st.Deliver(msg)
		r.runMu.Unlock()
		if err != nil {
			return abort(err)
		}

		// Propagate the delivered message so every replica catches up
		// before the next turn can reach any player. On gossip topologies
		// the speaker already distributed it; in coordinator mode nobody
		// does.
		if cfg.Delivery == DeliverBroadcast && !topo.Gossip() {
			syncPayload := encodeMessagePayload(msg)
			for i := 0; i < k; i++ {
				if err := r.sendFrom(coord, i, frameSync, syncPayload); err != nil {
					return crash(i, err)
				}
			}
		}

		turns++
		turnNs.Observe(float64(turn.End()))
	}
}

// publish writes a finished run's ledger into rec (nil: nothing): each
// link's Stats as its netrun.topo.<l>.* counters beside their netrun.*
// totals, the turns completed and the players crashed. A counter that
// would read zero stays unwritten, so a fault-free run shows no retry,
// bad-frame, duplicate or fault series.
func (r *topoRun) publish(rec *telemetry.Collector, res *Result, turns int) {
	if rec == nil {
		return
	}
	count := func(name string, n int64) {
		if n != 0 {
			rec.Count(name, n)
		}
	}
	var retries, badFrames, dupFrames int64
	for l, ls := range res.Stats.PerLink {
		lb := r.wires[l].labels
		count(lb.wireBits, ls.WireBits)
		count(lb.retries, ls.Retries)
		count(lb.badFrames, ls.BadFrames)
		count(lb.dupFrames, ls.DupFrames)
		for kind, n := range [...]int{
			faults.Drop: ls.Faults.Drops, faults.Duplicate: ls.Faults.Duplicates,
			faults.Corrupt: ls.Faults.Corruptions, faults.Delay: ls.Faults.Delays,
		} {
			count(lb.faultName[kind], int64(n))
		}
		retries += ls.Retries
		badFrames += ls.BadFrames
		dupFrames += ls.DupFrames
	}
	count(telemetry.NetrunWireBits, res.Stats.WireBits)
	count(telemetry.NetrunRetries, retries)
	count(telemetry.NetrunBadFrames, badFrames)
	count(telemetry.NetrunDupFrames, dupFrames)
	count(telemetry.NetrunFaults, int64(res.Stats.Faults.Total()))
	count(telemetry.NetrunTurns, int64(turns))
	count(telemetry.NetrunCrashes, int64(len(res.Crashed)))
}

// teardown stops the node loops first, then severs every link and waits
// until each has delivered what it still held. A loop stops only between
// sends, so no frame or injected duplicate is still on its way when the
// links close, and the stats read next are the same on every same-seed
// run.
func (r *topoRun) teardown() {
	close(r.done)
	r.loops.Wait()
	closeAndWait(r.wires)
}

// playerLoop runs one player node: apply syncs, speak on turns (draining
// late syncs first), gossip its own message on gossip topologies, relay
// frames in transit (inside recvAt), and die silently on a scheduled
// crash turn. A player that stops on its own — crashed or failed — severs
// its links, which on the star is how the coordinator notices a crash. A
// player stopped by teardown leaves them open: a neighbor may still be
// sending it a frame's injected duplicate, and teardown closes the links
// once every loop has stopped.
func (r *topoRun) playerLoop(n *topoNode) {
	defer r.loops.Done()
	i, player, replica, crashTurn, mode := n.id, n.player, &n.replica, n.crashTurn, r.mode
	defer func() {
		select {
		case <-r.done:
			return
		default:
		}
		for _, ep := range n.links {
			if ep != nil {
				ep.close()
			}
		}
	}()
	coordID := CoordinatorNode(r.k)
	gossip := r.topo.Gossip()
	turns := 0
	fail := func(err error) {
		r.sendFrom(n, coordID, frameErr, []byte(err.Error()))
	}
	applySync := func(payload []byte) error {
		if !gossip {
			msg, err := decodeMessagePayload(payload)
			if err != nil {
				return err
			}
			return replica.board.Append(msg)
		}
		idx, msg, err := decodeIndexedSync(payload)
		if err != nil {
			return err
		}
		return replica.apply(idx, msg)
	}
	for {
		// An idle player waits for its next frame with no deadline:
		// teardown ends the wait on every path out of the run.
		rf, err := r.recvAt(n, 0)
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
			r.runMu.Lock()
			msg, err := player.Speak(replica.board)
			r.runMu.Unlock()
			if err != nil {
				fail(err)
				return
			}
			encoded := encodeMessagePayload(msg)
			if mode == DeliverBroadcast && gossip {
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
