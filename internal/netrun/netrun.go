// Package netrun executes blackboard protocols as concurrent networked
// systems: each player runs on its own goroutine behind a transport link,
// a coordinator drives the schedule, and a seeded fault model
// (internal/faults) can delay, drop, duplicate or corrupt frames and crash
// players — while the board-level transcript stays bit-identical to the
// sequential blackboard.Run.
//
// # Architecture
//
// The coordinator owns the canonical board through a blackboard.Stepper
// and talks to each player over a Link pair created by a Transport. Every
// player mirrors the board in a replica, kept in sync by SYNC frames the
// coordinator broadcasts after each delivery. One turn is a ping-pong:
//
//	coordinator                       player s
//	  Next() -> s
//	  TURN(numMessages)  ──────────▶  verify replica, Speak(replica)
//	  Deliver(msg)       ◀──────────  MSG(player, bits)
//	  SYNC(msg) ─────▶ every player appends to its replica
//
// Frames ride a stop-and-wait ARQ (wire.go): sequence numbers, CRC32
// checksums, acknowledgements, per-attempt timeouts with exponential
// backoff and a bounded retry budget. Every recoverable fault — dropped,
// duplicated, corrupted or delayed frames — is repaired below the protocol
// layer, so the board transcript, its total bit count and the protocol
// output are a pure function of the protocol inputs, never of the fault
// mix. Only crashes are unrecoverable: a crashed player yields a typed
// CrashError alongside the partial Result.
//
// # Determinism
//
// With link faults disabled the run is transcript-conformant: messages,
// order, total bits and output are bit-identical to blackboard.Run on the
// same inputs (the conformance tests pin this for the optimal DISJ
// protocol, AND_k and the Lemma 7 sampler, on every transport). With
// faults enabled, each link direction draws decisions from its own
// rng.Source child stream (SplitN), acks bypass injection, and duplicates
// are discarded without re-acking — making retransmission counts and wire
// bits reproducible from Config.Seed whenever injected delays stay below
// the ARQ timeout.
//
// Protocol state shared between the scheduler and players (common in this
// repository's protocols, which are built for the sequential runtime) is
// safe here: a single run-wide mutex serializes Stepper calls and Speak,
// providing the happens-before edges the sockets themselves do not.
package netrun

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"broadcastic/internal/blackboard"
	"broadcastic/internal/faults"
	"broadcastic/internal/rng"
	"broadcastic/internal/telemetry"
	"broadcastic/internal/telemetry/causal"
)

// Config tunes a networked run. The zero value is usable: in-process
// channel transport, no faults, 250ms ARQ timeout, 12 retries.
type Config struct {
	// Transport supplies the coordinator-player links (default: chan).
	Transport Transport
	// Topology, when non-nil, runs the protocol on the explicit
	// message-passing topology runtime (toporun.go): nodes exchange routed
	// frames over the topology's physical links, relays store-and-forward
	// hop by hop, and per-link accounting lands under netrun.topo.<link>.*.
	// nil selects the legacy shared-board runtime, whose behavior, stats
	// and netrun.link.<player>.* metrics are unchanged.
	Topology Topology
	// Delivery selects how delivered messages propagate on the topology
	// path (ignored when Topology is nil): DeliverBroadcast mirrors every
	// message to every replica (blackboard semantics), DeliverCoordinator
	// keeps them at the hub (message-passing semantics — players never see
	// each other's messages, as in the coordinator model lower bounds).
	Delivery DeliveryMode
	// Faults is the seeded failure mix (zero value: none).
	Faults faults.Plan
	// Seed feeds the per-link fault streams; runs with equal seeds and
	// configs reproduce identical fault sequences and wire statistics.
	Seed uint64
	// Timeout is the base per-attempt ARQ timeout (default 250ms). Backoff
	// doubles it per retry, capped at 8x.
	Timeout time.Duration
	// MaxRetries bounds retransmissions per frame (default 12).
	MaxRetries int
	// Limits bound the protocol exactly as in blackboard.Run.
	Limits blackboard.Limits
	// Recorder receives the run's telemetry (nil: disabled). It replaces
	// the callback Hooks of earlier revisions, which fired only on the
	// happy path; the Recorder is driven from the exact sites that update
	// the wire-level counters — every retransmission trigger (known drop,
	// NACK, timeout), every discarded frame, every injected fault — so its
	// counters always match the returned Stats. Implementations must be
	// safe for concurrent use; recording never changes transcripts, bit
	// counts or outcomes.
	Recorder telemetry.Recorder
	// Causal, when enabled, attaches the run's wire-level story to a
	// trace: one netrun.hop span per delivered application frame, a
	// netrun.retry event per retransmission, a netrun.fault instant per
	// injected fault, and a netrun.crash failure (which triggers the
	// flight recorder's auto-dump) per crashed player. Observational only,
	// like Recorder.
	Causal causal.Context
}

// PlayerStats is per-player link and turn telemetry.
type PlayerStats struct {
	// Turns the player was asked to speak.
	Turns int
	// Retries is the retransmission count across both link directions.
	Retries int64
	// WireBits counts every bit put on (or dropped onto) the player's link,
	// both directions, including headers, acks and retransmissions.
	WireBits int64
	// Latency is the total wall-clock time of the player's turns.
	Latency time.Duration
	// Faults tallies injected link faults on both directions.
	Faults faults.Counts
	// BadFrames counts frames discarded for checksum or layout failure.
	BadFrames int64
	// DupFrames counts duplicate frames discarded by sequence check.
	DupFrames int64
}

// Stats aggregates a run's telemetry.
type Stats struct {
	// PerPlayer breaks the wire traffic down by player. On the legacy
	// shared-board path every player owns exactly one link, so the wire
	// fields double as per-link accounting; on the topology path links are
	// not player-owned (PerLink carries the wire view) and PerPlayer holds
	// the coordinator-side Turns and Latency only.
	PerPlayer []PlayerStats
	// PerLink breaks the wire traffic down by physical link on the
	// topology path (nil on the legacy path). The per-link WireBits sum to
	// Stats.WireBits exactly.
	PerLink []LinkStats
	// WireBits is the total bits placed on all links (headers, acks,
	// retransmissions and dropped frames included).
	WireBits int64
	// BoardBits is the protocol-level bit count — identical to the
	// sequential runtime's accounting.
	BoardBits int
	// Faults totals the injected link faults.
	Faults faults.Counts
	// Transport names the transport used.
	Transport string
	// Topology names the topology on the topology path ("" on the legacy
	// shared-board path).
	Topology string
}

// LinkStats is the wire accounting of one physical link on the topology
// path, both directions summed — the same contract as PlayerStats on the
// legacy path, keyed by link instead of player.
type LinkStats struct {
	// Link names the physical link by the node pair it joins.
	Link LinkID
	// WireBits counts every bit put on (or dropped onto) the link, both
	// directions, including headers, envelopes, acks and retransmissions.
	WireBits int64
	// Retries is the retransmission count across both directions.
	Retries int64
	// BadFrames counts frames discarded for checksum or layout failure.
	BadFrames int64
	// DupFrames counts duplicate frames discarded by sequence check.
	DupFrames int64
	// Faults tallies injected faults on both directions.
	Faults faults.Counts
}

// Result is the outcome of a networked run. After a crash, Board holds
// the transcript up to the failure and Crashed names the dead players.
type Result struct {
	Board   *blackboard.Board
	Stats   Stats
	Crashed []int
}

// ErrPlayerCrashed marks results truncated by a player crash; match with
// errors.Is.
var ErrPlayerCrashed = errors.New("netrun: player crashed")

// CrashError reports which player died and why, wrapping ErrPlayerCrashed.
type CrashError struct {
	Player int
	Cause  error
}

func (e *CrashError) Error() string {
	return fmt.Sprintf("netrun: player %d crashed: %v", e.Player, e.Cause)
}

func (e *CrashError) Unwrap() error { return e.Cause }

// Is reports equivalence to ErrPlayerCrashed.
func (e *CrashError) Is(target error) bool { return target == ErrPlayerCrashed }

const (
	defaultTimeout    = 250 * time.Millisecond
	defaultMaxRetries = 12
)

// Run executes the protocol concurrently over the configured transport.
// With faults disabled the returned board is bit-identical to the one
// blackboard.Run produces for the same scheduler, players, public source
// and limits.
func Run(sched blackboard.Scheduler, players []blackboard.Player, public *rng.Source, cfg Config) (*Result, error) {
	k := len(players)
	if k == 0 {
		return nil, fmt.Errorf("netrun: no players")
	}
	for i, p := range players {
		if p == nil {
			return nil, fmt.Errorf("netrun: player %d is nil", i)
		}
	}
	if err := cfg.Faults.Validate(); err != nil {
		return nil, err
	}
	for player := range cfg.Faults.CrashTurns {
		if player >= k {
			return nil, fmt.Errorf("netrun: crash scheduled for player %d but run has %d players", player, k)
		}
	}
	if cfg.Topology != nil {
		return runTopology(sched, players, public, cfg)
	}
	if cfg.Delivery != DeliverBroadcast {
		return nil, fmt.Errorf("netrun: delivery mode %v requires a topology", cfg.Delivery)
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

	coordLinks, playerLinks, err := transport.Open(k)
	if err != nil {
		return nil, err
	}

	// One fault stream per link direction: coordinator->player i draws from
	// child 2i, player i->coordinator from child 2i+1. Injectors exist only
	// when link faults are on, so a fault-free run consumes no randomness.
	var injCoord, injPlayer []*faults.Injector
	if cfg.Faults.Enabled() {
		streams := rng.New(cfg.Seed).SplitN(2 * k)
		injCoord = make([]*faults.Injector, k)
		injPlayer = make([]*faults.Injector, k)
		for i := 0; i < k; i++ {
			injCoord[i] = cfg.Faults.NewInjector(streams[2*i])
			injPlayer[i] = cfg.Faults.NewInjector(streams[2*i+1])
		}
	} else {
		injCoord = make([]*faults.Injector, k)
		injPlayer = make([]*faults.Injector, k)
	}

	st.SetRecorder(cfg.Recorder)

	// Both directions of player i's link record under the same link index:
	// the per-link breakdown mirrors Stats.PerPlayer, which also sums the
	// two directions.
	coordEps := make([]*endpoint, k)
	playerEps := make([]*endpoint, k)
	for i := 0; i < k; i++ {
		coordEps[i] = newEndpoint(coordLinks[i], injCoord[i], timeout, maxRetries, cfg.Recorder, cfg.Causal, telemetry.NetrunLink, i)
		playerEps[i] = newEndpoint(playerLinks[i], injPlayer[i], timeout, maxRetries, cfg.Recorder, cfg.Causal, telemetry.NetrunLink, i)
	}
	closeAll := func() { closeAndWait(coordEps, playerEps) }

	// runMu serializes all protocol-state access: Stepper calls on the
	// coordinator and Speak on player goroutines. The turn discipline means
	// there is never contention; the mutex exists for the happens-before
	// edges (shared scheduler/player state, shared public rng) that raw
	// socket I/O does not provide.
	var runMu sync.Mutex

	// Replicas share the canonical public source: public randomness is a
	// shared resource in the broadcast model, and the ping-pong discipline
	// (under runMu) makes every draw happen in sequential order.
	replicas := make([]*blackboard.Board, k)
	for i := 0; i < k; i++ {
		replica, err := blackboard.NewBoard(k, public)
		if err != nil {
			closeAll()
			return nil, err
		}
		replicas[i] = replica
	}

	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			playerLoop(playerEps[i], players[i], replicas[i], &runMu, cfg.Faults.CrashTurn(i))
		}(i)
	}

	// The coordinator may legitimately wait through the player's entire
	// retransmission budget (drops on the player->coordinator direction),
	// plus any injected delays, before a message arrives.
	recvDeadline := time.Duration(maxRetries+1)*(8*timeout+cfg.Faults.MaxDelay) + timeout

	stats := Stats{PerPlayer: make([]PlayerStats, k), Transport: transport.Name()}
	finish := func(crashed []int) *Result {
		closeAll()
		wg.Wait()
		for i := 0; i < k; i++ {
			ps := &stats.PerPlayer[i]
			ps.Retries = coordEps[i].stats.retries.Load() + playerEps[i].stats.retries.Load()
			ps.WireBits = coordEps[i].stats.wireBits.Load() + playerEps[i].stats.wireBits.Load()
			ps.BadFrames = coordEps[i].stats.badFrames.Load() + playerEps[i].stats.badFrames.Load()
			ps.DupFrames = coordEps[i].stats.dupDropped.Load() + playerEps[i].stats.dupDropped.Load()
			if injCoord[i] != nil {
				ps.Faults.Add(injCoord[i].Counts())
				ps.Faults.Add(injPlayer[i].Counts())
			}
			stats.WireBits += ps.WireBits
			stats.Faults.Add(ps.Faults)
		}
		stats.BoardBits = st.Board().TotalBits()
		return &Result{Board: st.Board(), Stats: stats, Crashed: crashed}
	}
	crash := func(player int, cause error) (*Result, error) {
		telemetry.Count(cfg.Recorder, telemetry.NetrunCrashes, 1)
		if cfg.Causal.Enabled() {
			// A crash is the unrecoverable failure of the run: mark the
			// instant and trigger the trace's flight-recorder auto-dump.
			cfg.Causal.Fail(causal.NetrunCrash,
				causal.Int("player", player), causal.String("error", cause.Error()))
		}
		res := finish([]int{player})
		return res, &CrashError{Player: player, Cause: cause}
	}

	for {
		runMu.Lock()
		speaker, done, err := st.Next()
		runMu.Unlock()
		if err != nil {
			closeAll()
			wg.Wait()
			return nil, err
		}
		if done {
			return finish(nil), nil
		}

		turnStart := time.Now()
		if err := coordEps[speaker].send(frameTurn, encodeTurnPayload(st.Board().NumMessages())); err != nil {
			return crash(speaker, err)
		}
		in, err := coordEps[speaker].recv(recvDeadline)
		if err != nil {
			return crash(speaker, err)
		}
		switch in.kind {
		case frameMsg:
			// Delivered below.
		case frameErr:
			closeAll()
			wg.Wait()
			return nil, fmt.Errorf("netrun: player %d: %s", speaker, in.payload)
		default:
			closeAll()
			wg.Wait()
			return nil, fmt.Errorf("netrun: player %d sent unexpected frame kind %d", speaker, in.kind)
		}
		msg, err := decodeMessagePayload(in.payload)
		if err != nil {
			closeAll()
			wg.Wait()
			return nil, err
		}

		runMu.Lock()
		err = st.Deliver(msg)
		runMu.Unlock()
		if err != nil {
			closeAll()
			wg.Wait()
			return nil, err
		}

		// Broadcast the delivered message so every replica catches up before
		// the next turn can reach any player.
		syncPayload := encodeMessagePayload(msg)
		for i := 0; i < k; i++ {
			if err := coordEps[i].send(frameSync, syncPayload); err != nil {
				return crash(i, err)
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

// playerLoop runs one player: it mirrors the board from SYNC frames,
// speaks on TURN frames, and dies silently on its scheduled crash turn.
// It exits when the link is severed (normal teardown closes the
// coordinator side of every link).
func playerLoop(ep *endpoint, player blackboard.Player, replica *blackboard.Board, runMu *sync.Mutex, crashTurn int) {
	defer ep.close()
	const idleDeadline = time.Hour // teardown closes the link; this is a backstop
	turns := 0
	fail := func(err error) {
		ep.send(frameErr, []byte(err.Error()))
	}
	for {
		in, err := ep.recv(idleDeadline)
		if err != nil {
			return
		}
		switch in.kind {
		case frameSync:
			msg, err := decodeMessagePayload(in.payload)
			if err != nil {
				fail(err)
				return
			}
			if err := replica.Append(msg); err != nil {
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
			want, err := decodeTurnPayload(in.payload)
			if err != nil {
				fail(err)
				return
			}
			if replica.NumMessages() != want {
				fail(fmt.Errorf("netrun: replica out of sync: %d messages, coordinator has %d", replica.NumMessages(), want))
				return
			}
			runMu.Lock()
			msg, err := player.Speak(replica)
			runMu.Unlock()
			if err != nil {
				fail(err)
				return
			}
			if err := ep.send(frameMsg, encodeMessagePayload(msg)); err != nil {
				return
			}
		default:
			fail(fmt.Errorf("netrun: unexpected frame kind %d", in.kind))
			return
		}
	}
}
