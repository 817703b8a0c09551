// Package netrun executes blackboard protocols as concurrent networked
// systems: each player runs on its own goroutine, a coordinator drives the
// schedule, the nodes talk over the links of a Topology, and a seeded
// fault model (internal/faults) can delay, drop, duplicate or corrupt
// frames and crash players — while the board-level transcript stays
// bit-identical to the sequential blackboard.Run.
//
// # Architecture
//
// The coordinator owns the canonical board through a blackboard.Stepper.
// A Transport opens one link per physical link of the topology — by
// default the Star, one link between each player and the coordinator.
// Every player mirrors the board in a replica, kept in sync by SYNC frames
// after each delivery. One turn is a ping-pong:
//
//	coordinator                       player s
//	  Next() -> s
//	  TURN(numMessages)  ──────────▶  verify replica, Speak(replica)
//	  Deliver(msg)       ◀──────────  MSG(player, bits)
//	  SYNC(msg) ─────▶ every player appends to its replica
//
// Other topologies relay frames hop by hop (ring) or have the speaker send
// the SYNCs itself (mesh); toporun.go has the details.
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
// Links push frames to their receiving endpoint, which acks them and
// queues them for its node. On the default in-process transport (chan)
// delivery is synchronous: the sender's Send runs the receiver's receive
// path, ack included, on the sender's goroutine, so a run starts no
// goroutine besides its player loops and a frame wakes only the node it is
// for. The pipe and tcp transports keep one reader and one writer
// goroutine per link end. On every transport a Send never waits on the
// peer and a receive never blocks, so both ends of a link can send at
// once without deadlock.
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
	"time"

	"broadcastic/internal/blackboard"
	"broadcastic/internal/faults"
	"broadcastic/internal/rng"
	"broadcastic/internal/telemetry"
	"broadcastic/internal/telemetry/causal"
)

// Config tunes a networked run. The zero value is usable: star topology
// over the in-process transport, no faults, 250ms ARQ timeout, 12
// retries.
type Config struct {
	// Transport supplies the physical links (default: chan).
	Transport Transport
	// Topology wires the players and the coordinator (default: Star).
	// Frames travel its physical links, relays store-and-forward hop by
	// hop, and per-link accounting lands under netrun.topo.<link>.*.
	Topology Topology
	// Delivery selects how delivered messages propagate: DeliverBroadcast
	// mirrors every message to every replica (blackboard semantics),
	// DeliverCoordinator keeps them at the hub (message-passing semantics
	// — players never see each other's messages, as in the coordinator
	// model lower bounds).
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
	// Recorder receives the run's telemetry (nil: disabled). The run keeps
	// one ledger, its Stats, board and latency samples, and publishes it
	// here once, when the run ends — on success, crash and abort alike:
	// every netrun.* counter and its netrun.topo.<l>.* shares,
	// netrun.turns, one netrun.ack_ns sample per delivered frame (run-wide
	// and per link), one netrun.turn_ns sample per turn, and the board's
	// blackboard.* accounting (Stepper.Record). So the recorded counters
	// equal the returned Stats exactly, and nothing reaches the Recorder
	// while the run goes: its metrics appear when it ends, not frame by
	// frame. Recording never changes transcripts, bit counts or outcomes.
	Recorder *telemetry.Collector
	// Causal, when enabled, attaches the run's wire-level story to a
	// trace: one netrun.hop span per delivered application frame, a
	// netrun.retry event per retransmission, a netrun.fault instant per
	// injected fault, and a netrun.crash failure (which triggers the
	// flight recorder's auto-dump) per crashed player. Observational only,
	// like Recorder.
	Causal causal.Context
}

// Stats aggregates a run's wire accounting, which the run publishes to
// Config.Recorder when it ends. Per-turn and ack latency are not kept
// here: a run with a Recorder keeps them beside its Stats and publishes
// them as the netrun.turn_ns and netrun.ack_ns histograms.
type Stats struct {
	// PerLink breaks the wire traffic down by physical link, in
	// Topology.Links order (on the star, link i is player i's). The
	// per-link WireBits sum to Stats.WireBits exactly.
	PerLink []LinkStats
	// WireBits is the total bits placed on all links (headers, acks,
	// retransmissions and dropped frames included).
	WireBits int64
	// BoardBits is the protocol-level bit count — identical to the
	// sequential runtime's accounting.
	BoardBits int
	// Faults totals the injected link faults, as the injectors decided
	// them (see faults.Counts).
	Faults faults.Counts
	// Transport names the transport used.
	Transport string
	// Topology names the topology used.
	Topology string
}

// LinkStats is the wire accounting of one physical link, both directions
// summed.
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
	// Faults tallies the injectors' fault decisions on both directions: a
	// duplicate or corruption drawn for a dropped frame counts, though
	// nothing of it reaches the wire.
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

// Run executes the protocol concurrently over the configured topology and
// transport. With faults disabled the returned board is bit-identical to
// the one blackboard.Run produces for the same scheduler, players, public
// source and limits.
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
	if cfg.Topology == nil {
		cfg.Topology = Star{}
	}
	return runTopology(sched, players, public, cfg)
}
