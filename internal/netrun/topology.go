package netrun

import "fmt"

// LinkID names one physical bidirectional link as the unordered pair of
// node ids it joins, normalized A < B. Node ids are the player indices
// 0..k-1 plus the coordinator at id k (CoordinatorNode(k)).
type LinkID struct {
	A, B int
}

// CoordinatorNode returns the coordinator's node id in a k-player run.
func CoordinatorNode(k int) int { return k }

// Topology describes how the k players and the coordinator are physically
// wired. The runtime opens one transport link per LinkID, routes every
// application frame hop by hop along NextHop, and accounts wire traffic
// per physical link — so the same protocol pays different wire costs on
// different topologies while producing the same transcript. Star is the
// default.
//
// Implementations must be deterministic pure functions of (k, at, dst):
// routing feeds the per-link fault streams, and reproducibility of wire
// statistics from Config.Seed depends on every run taking identical paths.
type Topology interface {
	// Name identifies the topology in stats and CLI flags.
	Name() string
	// Links enumerates the physical links of a k-player run, each
	// normalized (A < B) and listed exactly once. The slice order is the
	// link index used for fault streams and netrun.topo.<link> metrics.
	Links(k int) []LinkID
	// NextHop returns the neighbor to which a node at `at` forwards a
	// frame addressed to dst (dst != at). The returned node must be
	// adjacent to `at` in Links(k).
	NextHop(k, at, dst int) int
	// MaxHops bounds the length of any route, used to scale receive
	// deadlines: a frame on a k-hop route can legitimately wait through
	// k links' worth of retransmission budgets.
	MaxHops(k int) int
	// Gossip reports whether the speaker distributes its own message
	// directly to its peers (full mesh) instead of the coordinator
	// echoing SYNC frames. Gossip topologies must provide a direct link
	// between every pair of players.
	Gossip() bool
}

// Star is the coordinator/hub topology and the default: one link per
// player, all routes through the hub. The coordinator talks to every
// player directly, so no frame is relayed and none carries a routing
// envelope — the blackboard's shared medium as one TURN/MSG/SYNC link per
// player.
type Star struct{}

// Name implements Topology.
func (Star) Name() string { return "star" }

// Links implements Topology: player i ↔ coordinator, indexed by player.
func (Star) Links(k int) []LinkID {
	links := make([]LinkID, k)
	for i := 0; i < k; i++ {
		links[i] = LinkID{A: i, B: k}
	}
	return links
}

// NextHop implements Topology: the hub reaches players directly, players
// reach everything through the hub.
func (Star) NextHop(k, at, dst int) int {
	if at == k {
		return dst
	}
	return k
}

// MaxHops implements Topology: player → hub → player is two hops.
func (Star) MaxHops(int) int { return 2 }

// Gossip implements Topology.
func (Star) Gossip() bool { return false }

// Ring is the unidirectional cycle 0 → 1 → … → k-1 → coordinator → 0.
// Every frame travels in successor direction only, so a single k+1-link
// cycle carries all traffic and relays store-and-forward most frames —
// the maximally link-frugal topology, paid for in hop latency.
type Ring struct{}

// Name implements Topology.
func (Ring) Name() string { return "ring" }

// Links implements Topology: the cycle edges, deduplicated for the
// two-node ring (k=1), where both directions share the one physical link.
func (Ring) Links(k int) []LinkID {
	n := k + 1
	seen := make(map[LinkID]bool, n)
	links := make([]LinkID, 0, n)
	for i := 0; i < n; i++ {
		a, b := i, (i+1)%n
		if a > b {
			a, b = b, a
		}
		id := LinkID{A: a, B: b}
		if !seen[id] {
			seen[id] = true
			links = append(links, id)
		}
	}
	return links
}

// NextHop implements Topology: always the successor on the cycle.
func (Ring) NextHop(k, at, dst int) int { return (at + 1) % (k + 1) }

// MaxHops implements Topology: the longest route visits every node once.
func (Ring) MaxHops(k int) int { return k + 1 }

// Gossip implements Topology.
func (Ring) Gossip() bool { return false }

// Mesh is the complete graph over players and coordinator: every pair of
// nodes shares a direct link, every route is one hop, and the speaker
// gossips its own message to its peers instead of the coordinator echoing
// it — the peer-to-peer extreme, paid for in link count (k+1 choose 2).
type Mesh struct{}

// Name implements Topology.
func (Mesh) Name() string { return "mesh" }

// Links implements Topology: all pairs over nodes 0..k, ordered (A, B)
// lexicographically.
func (Mesh) Links(k int) []LinkID {
	links := make([]LinkID, 0, k*(k+1)/2)
	for a := 0; a <= k; a++ {
		for b := a + 1; b <= k; b++ {
			links = append(links, LinkID{A: a, B: b})
		}
	}
	return links
}

// NextHop implements Topology: every destination is a neighbor.
func (Mesh) NextHop(k, at, dst int) int { return dst }

// MaxHops implements Topology.
func (Mesh) MaxHops(int) int { return 1 }

// Gossip implements Topology.
func (Mesh) Gossip() bool { return true }

// ParseTransport maps a CLI transport name to a fresh Transport. It is
// the single construction path shared by cmd/netdisj, the experiments and
// the tests, so flag spellings cannot drift from the tested wiring.
func ParseTransport(name string) (Transport, error) {
	switch name {
	case "chan":
		return NewChanTransport(), nil
	case "pipe":
		return NewPipeTransport(), nil
	case "tcp":
		return NewTCPTransport(), nil
	}
	return nil, fmt.Errorf("netrun: unknown transport %q (want chan, pipe or tcp)", name)
}

// ParseTopology maps a CLI topology name to a Topology; "" names the
// default, the star.
func ParseTopology(name string) (Topology, error) {
	switch name {
	case "", "star":
		return Star{}, nil
	case "ring":
		return Ring{}, nil
	case "mesh":
		return Mesh{}, nil
	}
	return nil, fmt.Errorf("netrun: unknown topology %q (want star, ring or mesh)", name)
}
