package netrun_test

import (
	"errors"
	"testing"
	"time"

	"broadcastic/internal/blackboard"
	"broadcastic/internal/disj"
	"broadcastic/internal/faults"
	"broadcastic/internal/netrun"
	"broadcastic/internal/rng"
	"broadcastic/internal/telemetry"
)

// topologies enumerates the built-in topologies.
func topologies() []netrun.Topology {
	return []netrun.Topology{netrun.Star{}, netrun.Ring{}, netrun.Mesh{}}
}

// requireLinkAccounting pins the per-link contract: one LinkStats per
// physical link, wire bits summing to the total exactly, and the
// topology named in the stats. allBusy additionally requires traffic on
// every link (false for coordinator-mode mesh, whose peer links are
// legitimately idle).
func requireLinkAccounting(t *testing.T, res *netrun.Result, topo netrun.Topology, k int, allBusy bool) {
	t.Helper()
	if res.Stats.Topology != topo.Name() {
		t.Fatalf("stats name topology %q, want %q", res.Stats.Topology, topo.Name())
	}
	links := topo.Links(k)
	if len(res.Stats.PerLink) != len(links) {
		t.Fatalf("%d LinkStats for %d links", len(res.Stats.PerLink), len(links))
	}
	var sumBits, sumRetries int64
	var sumFaults faults.Counts
	for l, ls := range res.Stats.PerLink {
		if ls.Link != links[l] {
			t.Fatalf("LinkStats[%d] names link %v, want %v", l, ls.Link, links[l])
		}
		if allBusy && ls.WireBits == 0 {
			t.Fatalf("link %v carried no traffic", ls.Link)
		}
		sumBits += ls.WireBits
		sumRetries += ls.Retries
		sumFaults.Add(ls.Faults)
	}
	if sumBits != res.Stats.WireBits {
		t.Fatalf("per-link wire bits sum to %d, stats total %d", sumBits, res.Stats.WireBits)
	}
	if sumFaults != res.Stats.Faults {
		t.Fatalf("per-link faults sum to %+v, stats total %+v", sumFaults, res.Stats.Faults)
	}
	if sumRetries < int64(res.Stats.Faults.Drops) {
		t.Fatalf("%d retries cannot repair %d drops", sumRetries, res.Stats.Faults.Drops)
	}
}

// TestTopologyConformance is the conformance matrix: on every transport ×
// topology cell the board transcript, bit accounting and protocol answer
// must be identical to the sequential blackboard run — the topology
// changes where bits travel, never what the protocol says — and the wire
// must carry more than the board, since frames add headers and acks.
func TestTopologyConformance(t *testing.T) {
	cases := []struct {
		name string
		inst func(t *testing.T) *disj.Instance
	}{
		{"disjoint", func(t *testing.T) *disj.Instance {
			inst, err := disj.GenerateDisjoint(rng.New(606), 72, 4, 0.35)
			if err != nil {
				t.Fatal(err)
			}
			return inst
		}},
		{"intersecting", func(t *testing.T) *disj.Instance {
			inst, err := disj.GenerateIntersecting(rng.New(707), 72, 4, 1, 0.35)
			if err != nil {
				t.Fatal(err)
			}
			return inst
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inst := tc.inst(t)
			truth, err := inst.Disjoint()
			if err != nil {
				t.Fatal(err)
			}
			refProto, err := disj.NewOptimalProtocol(inst, disj.Options{})
			if err != nil {
				t.Fatal(err)
			}
			refBoard := seqFingerprint(t, refProto, nil)
			for _, topo := range topologies() {
				t.Run(topo.Name(), func(t *testing.T) {
					for _, tr := range transports(t) {
						t.Run(tr.Name(), func(t *testing.T) {
							proto, err := disj.NewOptimalProtocol(inst, disj.Options{})
							if err != nil {
								t.Fatal(err)
							}
							cfg := quickCfg
							cfg.Transport = tr
							cfg.Topology = topo
							res := netFingerprint(t, proto, nil, cfg)
							requireSameBoard(t, refBoard, res.Board)
							out, err := proto.Outcome(res.Board)
							if err != nil {
								t.Fatal(err)
							}
							if out.Disjoint != truth {
								t.Fatalf("answer %v, truth %v", out.Disjoint, truth)
							}
							if res.Stats.BoardBits != refBoard.TotalBits() {
								t.Fatalf("BoardBits %d, want %d", res.Stats.BoardBits, refBoard.TotalBits())
							}
							if res.Stats.WireBits <= int64(res.Stats.BoardBits) {
								t.Fatalf("WireBits %d not above BoardBits %d", res.Stats.WireBits, res.Stats.BoardBits)
							}
							requireLinkAccounting(t, res, topo, inst.K, true)
						})
					}
				})
			}
		})
	}
}

// The coordinator-model protocol must produce the hub transcript the
// sequential runtime produces — with DeliverCoordinator suppressing every
// sync, so players decide from their input and the shared sketch alone.
func TestTopologyCoordinatorDelivery(t *testing.T) {
	inst, err := disj.GenerateIntersecting(rng.New(808), 64, 4, 1, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := inst.Disjoint()
	if err != nil {
		t.Fatal(err)
	}
	refProto, err := disj.NewCoordinatorProtocol(inst)
	if err != nil {
		t.Fatal(err)
	}
	refBoard := seqFingerprint(t, refProto, nil)
	if got, want := refBoard.TotalBits(), inst.N*inst.K; got != want {
		t.Fatalf("hub log holds %d bits, want n*k = %d", got, want)
	}
	for _, topo := range topologies() {
		t.Run(topo.Name(), func(t *testing.T) {
			proto, err := disj.NewCoordinatorProtocol(inst)
			if err != nil {
				t.Fatal(err)
			}
			cfg := quickCfg
			cfg.Topology = topo
			cfg.Delivery = netrun.DeliverCoordinator
			res := netFingerprint(t, proto, nil, cfg)
			requireSameBoard(t, refBoard, res.Board)
			out, err := proto.Outcome(res.Board)
			if err != nil {
				t.Fatal(err)
			}
			if out.Disjoint != truth {
				t.Fatalf("answer %v, truth %v", out.Disjoint, truth)
			}
			requireLinkAccounting(t, res, topo, inst.K, false)
		})
	}
}

// Satellite: fault plans on ring and mesh links. Under every recoverable
// mix the transcript must stay identical to the fault-free sequential run
// — per-hop ARQ repairs each physical link independently, relays
// included.
func TestTopologyFaultSweep(t *testing.T) {
	inst, err := disj.GenerateIntersecting(rng.New(909), 48, 4, 2, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	refProto, err := disj.NewOptimalProtocol(inst, disj.Options{})
	if err != nil {
		t.Fatal(err)
	}
	refBoard := seqFingerprint(t, refProto, nil)
	mixes := []string{
		"drop=0.08",
		"dup=0.1",
		"corrupt=0.06",
		"drop=0.05,dup=0.05,corrupt=0.03",
	}
	for _, topo := range []netrun.Topology{netrun.Ring{}, netrun.Mesh{}} {
		t.Run(topo.Name(), func(t *testing.T) {
			var injected int
			for _, mix := range mixes {
				t.Run(mix, func(t *testing.T) {
					plan, err := faults.Parse(mix)
					if err != nil {
						t.Fatal(err)
					}
					proto, err := disj.NewOptimalProtocol(inst, disj.Options{})
					if err != nil {
						t.Fatal(err)
					}
					cfg := netrun.Config{
						Topology:   topo,
						Faults:     plan,
						Seed:       17,
						Timeout:    40 * time.Millisecond,
						MaxRetries: 10,
					}
					res := netFingerprint(t, proto, nil, cfg)
					requireSameBoard(t, refBoard, res.Board)
					out, err := proto.Outcome(res.Board)
					if err != nil {
						t.Fatal(err)
					}
					if out.Disjoint {
						t.Fatal("answer flipped under faults")
					}
					requireLinkAccounting(t, res, topo, inst.K, true)
					injected += res.Stats.Faults.Total()
				})
			}
			// Any single short run may dodge its fault coin flips, but four
			// mixes at these rates cannot all draw zero injections.
			if injected == 0 {
				t.Fatal("fault sweep injected nothing across all mixes")
			}
		})
	}
}

// Satellite: seed reproducibility per topology. Same seed, same topology
// ⇒ the same per-link fault sequence, wire bits and retries; a different
// seed changes the wire statistics but never the transcript.
func TestTopologyFaultReproducibility(t *testing.T) {
	inst, err := disj.GenerateDisjoint(rng.New(111), 48, 4, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := faults.Parse("drop=0.06,dup=0.06,corrupt=0.04")
	if err != nil {
		t.Fatal(err)
	}
	for _, topo := range topologies() {
		t.Run(topo.Name(), func(t *testing.T) {
			run := func(seed uint64) *netrun.Result {
				proto, err := disj.NewOptimalProtocol(inst, disj.Options{})
				if err != nil {
					t.Fatal(err)
				}
				cfg := netrun.Config{
					Topology: topo,
					Faults:   plan,
					Seed:     seed,
					// Generous timeout: injected drops and corruptions recover
					// via immediate or NACK-driven retransmits, so the timer
					// only fires on real stalls. A short timeout could fire
					// spuriously under -race slowdown and add timing-dependent
					// retries, breaking the exact same-seed stat equality.
					Timeout:    500 * time.Millisecond,
					MaxRetries: 10,
				}
				return netFingerprint(t, proto, nil, cfg)
			}
			a, b := run(23), run(23)
			if a.Board.TranscriptKey() != b.Board.TranscriptKey() {
				t.Fatal("transcripts differ across same-seed runs")
			}
			if a.Stats.WireBits != b.Stats.WireBits {
				t.Fatalf("wire bits differ: %d vs %d", a.Stats.WireBits, b.Stats.WireBits)
			}
			if a.Stats.Faults != b.Stats.Faults {
				t.Fatalf("fault tallies differ: %+v vs %+v", a.Stats.Faults, b.Stats.Faults)
			}
			for l := range a.Stats.PerLink {
				la, lb := a.Stats.PerLink[l], b.Stats.PerLink[l]
				if la.WireBits != lb.WireBits || la.Retries != lb.Retries || la.Faults != lb.Faults {
					t.Fatalf("link %v stats differ across same-seed runs: %+v vs %+v", la.Link, la, lb)
				}
			}
			c := run(24)
			if c.Board.TranscriptKey() != a.Board.TranscriptKey() {
				t.Fatal("board transcript depends on the fault seed")
			}
			if c.Stats.Faults == a.Stats.Faults && c.Stats.WireBits == a.Stats.WireBits {
				t.Fatal("different seeds produced identical fault statistics")
			}
		})
	}
}

// Same seed ⇒ the same per-link stats, every time. On the ring, relays
// still carry the last turn's syncs when the schedule ends, and on every
// topology the last sender may still be between a frame and its injected
// duplicate; a teardown that raced either would make wire bits or
// duplicate counts vary from run to run. 40 runs per seed catch a
// timing-dependent frame order that two runs would miss.
func TestTopologyStatsDeterminism(t *testing.T) {
	inst, err := disj.GenerateDisjoint(rng.New(111), 48, 4, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := faults.Parse("drop=0.06,dup=0.06,corrupt=0.04")
	if err != nil {
		t.Fatal(err)
	}
	for _, topo := range topologies() {
		t.Run(topo.Name(), func(t *testing.T) {
			for _, seed := range []uint64{23, 24} {
				var want []netrun.LinkStats
				for i := 0; i < 40; i++ {
					proto, err := disj.NewOptimalProtocol(inst, disj.Options{})
					if err != nil {
						t.Fatal(err)
					}
					res := netFingerprint(t, proto, nil, netrun.Config{
						Topology: topo, Faults: plan, Seed: seed,
						Timeout: 500 * time.Millisecond, MaxRetries: 10,
					})
					if i == 0 {
						want = res.Stats.PerLink
						continue
					}
					for l, got := range res.Stats.PerLink {
						if got != want[l] {
							t.Fatalf("seed %d run %d: link %v stats %+v, first run %+v", seed, i, got.Link, got, want[l])
						}
					}
				}
			}
		})
	}
}

// The per-link netrun.topo.<l>.* counters must equal the returned
// PerLink stats exactly, and the aggregate netrun.* counters the totals.
func TestTopologyRecorderMatchesStats(t *testing.T) {
	inst, err := disj.GenerateDisjoint(rng.New(222), 48, 3, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := faults.Parse("drop=0.05,dup=0.05")
	if err != nil {
		t.Fatal(err)
	}
	for _, topo := range topologies() {
		t.Run(topo.Name(), func(t *testing.T) {
			proto, err := disj.NewOptimalProtocol(inst, disj.Options{})
			if err != nil {
				t.Fatal(err)
			}
			rec := telemetry.NewCollector()
			cfg := netrun.Config{
				Topology: topo,
				Faults:   plan, Seed: 7,
				Timeout: 40 * time.Millisecond, MaxRetries: 10,
				Recorder: rec, Limits: proto.Limits(),
			}
			res, err := netrun.Run(proto.Scheduler(), proto.Players(), nil, cfg)
			if err != nil {
				t.Fatal(err)
			}
			var total int64
			for l, ls := range res.Stats.PerLink {
				if got := rec.Counter(telemetry.Indexed(telemetry.NetrunTopo, l, "wire_bits")); got != ls.WireBits {
					t.Errorf("link %d recorded %d wire bits, stats %d", l, got, ls.WireBits)
				}
				if got := rec.Counter(telemetry.Indexed(telemetry.NetrunTopo, l, "retries")); got != ls.Retries {
					t.Errorf("link %d recorded %d retries, stats %d", l, got, ls.Retries)
				}
				total += ls.WireBits
			}
			if got := rec.Counter(telemetry.NetrunWireBits); got != total || got != res.Stats.WireBits {
				t.Errorf("recorded wire bits %d, per-link sum %d, stats %d", got, total, res.Stats.WireBits)
			}
		})
	}
}

// Crash faults stay supported on the star topology (where a dead node
// severs only its own link) and are rejected on ring and mesh.
func TestTopologyCrash(t *testing.T) {
	inst, err := disj.GenerateDisjoint(rng.New(333), 48, 4, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := faults.Parse("crash=1@1")
	if err != nil {
		t.Fatal(err)
	}
	proto, err := disj.NewOptimalProtocol(inst, disj.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := netrun.Config{
		Topology: netrun.Star{},
		Faults:   plan, Seed: 1,
		Timeout: 40 * time.Millisecond, MaxRetries: 4,
		Limits: proto.Limits(),
	}
	res, err := netrun.Run(proto.Scheduler(), proto.Players(), nil, cfg)
	if !errors.Is(err, netrun.ErrPlayerCrashed) {
		t.Fatalf("expected ErrPlayerCrashed, got %v", err)
	}
	var ce *netrun.CrashError
	if !errors.As(err, &ce) || ce.Player != 1 {
		t.Fatalf("crash attributed to %v, want player 1", err)
	}
	if res == nil || len(res.Crashed) != 1 || res.Crashed[0] != 1 {
		t.Fatalf("crashed list %v, want [1]", res)
	}
	for _, topo := range []netrun.Topology{netrun.Ring{}, netrun.Mesh{}} {
		proto, err := disj.NewOptimalProtocol(inst, disj.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cfg := netrun.Config{Topology: topo, Faults: plan, Limits: proto.Limits()}
		if _, err := netrun.Run(proto.Scheduler(), proto.Players(), nil, cfg); err == nil {
			t.Fatalf("crash plan accepted on %s topology", topo.Name())
		}
	}
}

// Construction helpers and validation paths.
func TestTopologyValidation(t *testing.T) {
	for _, name := range []string{"chan", "pipe", "tcp"} {
		tr, err := netrun.ParseTransport(name)
		if err != nil || tr.Name() != name {
			t.Fatalf("ParseTransport(%q) = %v, %v", name, tr, err)
		}
	}
	if _, err := netrun.ParseTransport("carrier-pigeon"); err == nil {
		t.Fatal("unknown transport accepted")
	}
	for _, name := range []string{"star", "ring", "mesh"} {
		topo, err := netrun.ParseTopology(name)
		if err != nil || topo == nil || topo.Name() != name {
			t.Fatalf("ParseTopology(%q) = %v, %v", name, topo, err)
		}
	}
	if topo, err := netrun.ParseTopology(""); err != nil || topo != (netrun.Star{}) {
		t.Fatalf(`ParseTopology("") = %v, %v (want the star)`, topo, err)
	}
	for _, name := range []string{"board", "torus"} {
		if _, err := netrun.ParseTopology(name); err == nil {
			t.Fatalf("unknown topology %q accepted", name)
		}
	}
	for _, tc := range []struct {
		name string
		mode netrun.DeliveryMode
	}{{"broadcast", netrun.DeliverBroadcast}, {"", netrun.DeliverBroadcast}, {"coordinator", netrun.DeliverCoordinator}} {
		mode, err := netrun.ParseDelivery(tc.name)
		if err != nil || mode != tc.mode {
			t.Fatalf("ParseDelivery(%q) = %v, %v", tc.name, mode, err)
		}
	}
	if _, err := netrun.ParseDelivery("telepathy"); err == nil {
		t.Fatal("unknown delivery mode accepted")
	}

	// Node ids have no one-byte cap: a 300-player star run over chan
	// matches the sequential runtime.
	const k = 300
	newProto := func() (blackboard.Scheduler, []blackboard.Player) {
		sched := &blackboard.RoundRobin{K: k, Stop: func(b *blackboard.Board) (bool, error) {
			return b.NumMessages() >= k, nil
		}}
		players := make([]blackboard.Player, k)
		for i := range players {
			i := i
			players[i] = blackboard.FuncPlayer(func(b *blackboard.Board) (blackboard.Message, error) {
				return blackboard.Message{Player: i, Bits: []byte{byte(i) & 0x80}, Len: 1}, nil
			})
		}
		return sched, players
	}
	sched, players := newProto()
	ref, err := blackboard.Run(sched, players, nil, blackboard.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	sched, players = newProto()
	res, err := netrun.Run(sched, players, nil, netrun.Config{Transport: netrun.NewChanTransport()})
	if err != nil {
		t.Fatalf("%d-player star run: %v", k, err)
	}
	requireSameBoard(t, ref.Board, res.Board)
	requireLinkAccounting(t, res, netrun.Star{}, k, true)
}

// Topology shape invariants: link sets, routing and hop bounds.
func TestTopologyShapes(t *testing.T) {
	const k = 5
	if got := len(netrun.Star{}.Links(k)); got != k {
		t.Fatalf("star has %d links, want %d", got, k)
	}
	if got := len(netrun.Ring{}.Links(k)); got != k+1 {
		t.Fatalf("ring has %d links, want %d", got, k+1)
	}
	if got := len(netrun.Mesh{}.Links(k)); got != k*(k+1)/2 {
		t.Fatalf("mesh has %d links, want %d", got, k*(k+1)/2)
	}
	// k=1 ring degenerates to a single shared link.
	if got := len(netrun.Ring{}.Links(1)); got != 1 {
		t.Fatalf("two-node ring has %d links, want 1", got)
	}
	// Every route terminates within MaxHops.
	for _, topo := range topologies() {
		adj := make(map[int]map[int]bool)
		for _, l := range topo.Links(k) {
			if adj[l.A] == nil {
				adj[l.A] = make(map[int]bool)
			}
			if adj[l.B] == nil {
				adj[l.B] = make(map[int]bool)
			}
			adj[l.A][l.B] = true
			adj[l.B][l.A] = true
		}
		for src := 0; src <= k; src++ {
			for dst := 0; dst <= k; dst++ {
				if src == dst {
					continue
				}
				at, hops := src, 0
				for at != dst {
					next := topo.NextHop(k, at, dst)
					if !adj[at][next] {
						t.Fatalf("%s routes %d->%d via non-adjacent %d->%d", topo.Name(), src, dst, at, next)
					}
					at = next
					hops++
					if hops > topo.MaxHops(k) {
						t.Fatalf("%s route %d->%d exceeds MaxHops %d", topo.Name(), src, dst, topo.MaxHops(k))
					}
				}
			}
		}
	}
}
