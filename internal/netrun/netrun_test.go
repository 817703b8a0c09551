package netrun_test

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"broadcastic/internal/andk"
	"broadcastic/internal/blackboard"
	"broadcastic/internal/core/coretest"
	"broadcastic/internal/disj"
	"broadcastic/internal/faults"
	"broadcastic/internal/netrun"
	"broadcastic/internal/prob"
	"broadcastic/internal/prob/probtest"
	"broadcastic/internal/rng"
	"broadcastic/internal/telemetry"
)

// boardProtocol is the shape every protocol adapter in this repository
// exposes; conformance tests run fresh instances of one through both
// runtimes and compare transcripts bit for bit.
type boardProtocol interface {
	Scheduler() blackboard.Scheduler
	Players() []blackboard.Player
	Limits() blackboard.Limits
}

// seqFingerprint runs the protocol on the sequential runtime.
func seqFingerprint(t *testing.T, p boardProtocol, public *rng.Source) *blackboard.Board {
	t.Helper()
	res, err := blackboard.Run(p.Scheduler(), p.Players(), public, p.Limits())
	if err != nil {
		t.Fatalf("sequential run: %v", err)
	}
	return res.Board
}

// netFingerprint runs the protocol on the networked runtime.
func netFingerprint(t *testing.T, p boardProtocol, public *rng.Source, cfg netrun.Config) *netrun.Result {
	t.Helper()
	cfg.Limits = p.Limits()
	res, err := netrun.Run(p.Scheduler(), p.Players(), public, cfg)
	if err != nil {
		t.Fatalf("networked run (%s): %v", cfg.Transport.Name(), err)
	}
	return res
}

func requireSameBoard(t *testing.T, want, got *blackboard.Board) {
	t.Helper()
	if want.TranscriptKey() != got.TranscriptKey() {
		t.Fatalf("transcripts differ:\nsequential %s\nnetworked  %s", want.TranscriptKey(), got.TranscriptKey())
	}
	if want.TotalBits() != got.TotalBits() || want.NumMessages() != got.NumMessages() {
		t.Fatalf("accounting differs: %d bits/%d msgs vs %d bits/%d msgs",
			want.TotalBits(), want.NumMessages(), got.TotalBits(), got.NumMessages())
	}
}

func transports(t *testing.T) []netrun.Transport {
	ts := []netrun.Transport{netrun.NewChanTransport(), netrun.NewPipeTransport()}
	c, p, err := netrun.NewTCPTransport().Open(1)
	if err != nil {
		t.Logf("skipping tcp transport: %v", err)
		return ts
	}
	c[0].Close()
	p[0].Close()
	return append(ts, netrun.NewTCPTransport())
}

var quickCfg = netrun.Config{Timeout: 100 * time.Millisecond, MaxRetries: 6}

// With faults disabled, the networked runtime must reproduce the
// sequential transcript bit for bit for the optimal DISJ protocol, on
// every transport, for both answers.
func TestConformanceDisjOptimal(t *testing.T) {
	cases := []struct {
		name string
		inst func() *disj.Instance
	}{
		{"disjoint", func() *disj.Instance {
			inst, err := disj.GenerateDisjoint(rng.New(101), 96, 4, 0.35)
			if err != nil {
				t.Fatal(err)
			}
			return inst
		}},
		{"intersecting", func() *disj.Instance {
			inst, err := disj.GenerateIntersecting(rng.New(202), 96, 4, 1, 0.35)
			if err != nil {
				t.Fatal(err)
			}
			return inst
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inst := tc.inst()
			refProto, err := disj.NewOptimalProtocol(inst, disj.Options{})
			if err != nil {
				t.Fatal(err)
			}
			refBoard := seqFingerprint(t, refProto, nil)
			refOut, err := refProto.Outcome(refBoard)
			if err != nil {
				t.Fatal(err)
			}
			truth, err := inst.Disjoint()
			if err != nil {
				t.Fatal(err)
			}
			if refOut.Disjoint != truth {
				t.Fatalf("sequential answer %v, truth %v", refOut.Disjoint, truth)
			}
			for _, tr := range transports(t) {
				t.Run(tr.Name(), func(t *testing.T) {
					proto, err := disj.NewOptimalProtocol(inst, disj.Options{})
					if err != nil {
						t.Fatal(err)
					}
					cfg := quickCfg
					cfg.Transport = tr
					res := netFingerprint(t, proto, nil, cfg)
					requireSameBoard(t, refBoard, res.Board)
					out, err := proto.Outcome(res.Board)
					if err != nil {
						t.Fatal(err)
					}
					if out.Disjoint != refOut.Disjoint || out.Bits != refOut.Bits {
						t.Fatalf("outcome %+v, want %+v", out, refOut)
					}
					if res.Stats.BoardBits != refBoard.TotalBits() {
						t.Fatalf("BoardBits %d, want %d", res.Stats.BoardBits, refBoard.TotalBits())
					}
					if res.Stats.WireBits <= int64(res.Stats.BoardBits) {
						t.Fatalf("WireBits %d not above BoardBits %d", res.Stats.WireBits, res.Stats.BoardBits)
					}
				})
			}
		})
	}
}

func TestConformanceAndK(t *testing.T) {
	spec, err := andk.NewSequential(5)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		x    []int
		want int
	}{
		{"all-ones", []int{1, 1, 1, 1, 1}, 1},
		{"with-zero", []int{1, 1, 0, 1, 1}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			refProto, err := coretest.NewSpecProtocol(spec, tc.x, nil)
			if err != nil {
				t.Fatal(err)
			}
			refBoard := seqFingerprint(t, refProto, nil)
			for _, tr := range transports(t) {
				t.Run(tr.Name(), func(t *testing.T) {
					proto, err := coretest.NewSpecProtocol(spec, tc.x, nil)
					if err != nil {
						t.Fatal(err)
					}
					cfg := quickCfg
					cfg.Transport = tr
					res := netFingerprint(t, proto, nil, cfg)
					requireSameBoard(t, refBoard, res.Board)
					out, err := proto.Output()
					if err != nil {
						t.Fatal(err)
					}
					if out != tc.want {
						t.Fatalf("output %d, want %d", out, tc.want)
					}
				})
			}
		})
	}
}

// The Lemma 7 sampler consumes public randomness; identical seeds must
// yield identical transmissions and transcripts on both runtimes.
func TestConformanceSampler(t *testing.T) {
	eta, err := prob.NewDist([]float64{0.5, 0.25, 0.125, 0.0625, 0.0625, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	nu, err := probtest.Uniform(8)
	if err != nil {
		t.Fatal(err)
	}
	const publicSeed = 7
	refProto := newSamplerProtocol(eta, nu)
	refBoard := seqFingerprint(t, refProto, rng.New(publicSeed))
	refRes := refProto.Result()
	if refRes == nil {
		t.Fatal("sequential run left no transmission result")
	}
	if refBoard.NumMessages() != 2 {
		t.Fatalf("sampler board has %d messages", refBoard.NumMessages())
	}
	for _, tr := range transports(t) {
		t.Run(tr.Name(), func(t *testing.T) {
			proto := newSamplerProtocol(eta, nu)
			cfg := quickCfg
			cfg.Transport = tr
			res := netFingerprint(t, proto, rng.New(publicSeed), cfg)
			requireSameBoard(t, refBoard, res.Board)
			got := proto.Result()
			if got == nil || got.Value != refRes.Value || got.Bits != refRes.Bits {
				t.Fatalf("transmission %+v, want %+v", got, refRes)
			}
		})
	}
}

// Under every recoverable fault mix the protocol answer must stay correct
// and the board transcript identical to the fault-free run: the delivery
// layer repairs everything below the protocol.
func TestFaultSweepDisjOptimal(t *testing.T) {
	inst, err := disj.GenerateIntersecting(rng.New(303), 64, 4, 2, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	refProto, err := disj.NewOptimalProtocol(inst, disj.Options{})
	if err != nil {
		t.Fatal(err)
	}
	refBoard := seqFingerprint(t, refProto, nil)

	mixes := []string{
		"drop=0.1",
		"dup=0.15",
		"corrupt=0.1",
		"delay=0.3:2ms",
		"drop=0.06,dup=0.06,corrupt=0.04,delay=0.2:1ms",
	}
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
				Faults:     plan,
				Seed:       11,
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
			if res.Stats.Faults.Total() == 0 {
				t.Fatalf("fault mix %q injected nothing", mix)
			}
		})
	}
}

// Identical seeds must reproduce the whole run: transcript, wire bits,
// retries and fault tallies.
func TestFaultReproducibility(t *testing.T) {
	inst, err := disj.GenerateDisjoint(rng.New(404), 64, 4, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := faults.Parse("drop=0.08,dup=0.08,corrupt=0.05")
	if err != nil {
		t.Fatal(err)
	}
	run := func() *netrun.Result {
		proto, err := disj.NewOptimalProtocol(inst, disj.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cfg := netrun.Config{
			Faults:     plan,
			Seed:       99,
			Timeout:    40 * time.Millisecond,
			MaxRetries: 10,
		}
		return netFingerprint(t, proto, nil, cfg)
	}
	a, b := run(), run()
	if a.Board.TranscriptKey() != b.Board.TranscriptKey() {
		t.Fatal("transcripts differ across same-seed runs")
	}
	if a.Stats.WireBits != b.Stats.WireBits {
		t.Fatalf("wire bits differ: %d vs %d", a.Stats.WireBits, b.Stats.WireBits)
	}
	if a.Stats.Faults != b.Stats.Faults {
		t.Fatalf("fault tallies differ: %v vs %v", a.Stats.Faults, b.Stats.Faults)
	}
	for l := range a.Stats.PerLink {
		if a.Stats.PerLink[l].Retries != b.Stats.PerLink[l].Retries {
			t.Fatalf("link %d retries differ: %d vs %d", l, a.Stats.PerLink[l].Retries, b.Stats.PerLink[l].Retries)
		}
	}
	// A different seed draws a different fault sequence (while the board
	// transcript, being repaired below the protocol, stays identical).
	proto, err := disj.NewOptimalProtocol(inst, disj.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := netFingerprint(t, proto, nil, netrun.Config{
		Faults: plan, Seed: 100, Timeout: 40 * time.Millisecond, MaxRetries: 10,
	})
	if c.Board.TranscriptKey() != a.Board.TranscriptKey() {
		t.Fatal("board transcript depends on the fault seed")
	}
	if c.Stats.Faults == a.Stats.Faults && c.Stats.WireBits == a.Stats.WireBits {
		t.Fatal("different seeds produced identical fault statistics")
	}
}

// recordedFaults sums the per-link per-kind fault counters of a run with k
// links into a faults.Counts for comparison against Stats.
func recordedFaults(rec *telemetry.Collector, k int) faults.Counts {
	var c faults.Counts
	for i := 0; i < k; i++ {
		c.Drops += int(rec.Counter(telemetry.Indexed(telemetry.NetrunTopo, i, "faults.drop")))
		c.Duplicates += int(rec.Counter(telemetry.Indexed(telemetry.NetrunTopo, i, "faults.dup")))
		c.Corruptions += int(rec.Counter(telemetry.Indexed(telemetry.NetrunTopo, i, "faults.corrupt")))
		c.Delays += int(rec.Counter(telemetry.Indexed(telemetry.NetrunTopo, i, "faults.delay")))
	}
	return c
}

// assertRecorderMatchesStats pins the one-ledger design: a run keeps its
// counts in its links, fault injectors and board, and publishes them to
// the Recorder when it ends, so the recorded counters must equal the
// returned Stats exactly — on the happy path, on every repair path
// (known-drop retransmit, NACK retransmit, duplicate discard) and on a
// crashed run's partial Result.
func assertRecorderMatchesStats(t *testing.T, rec *telemetry.Collector, res *netrun.Result, k int) {
	t.Helper()
	var retries, badFrames, dupFrames int64
	for l, ls := range res.Stats.PerLink {
		retries += ls.Retries
		badFrames += ls.BadFrames
		dupFrames += ls.DupFrames
		for field, want := range map[string]int64{
			"wire_bits": ls.WireBits, "retries": ls.Retries, "bad_frames": ls.BadFrames, "dup_frames": ls.DupFrames,
			"faults.drop": int64(ls.Faults.Drops), "faults.dup": int64(ls.Faults.Duplicates),
			"faults.corrupt": int64(ls.Faults.Corruptions), "faults.delay": int64(ls.Faults.Delays),
		} {
			if got := rec.Counter(telemetry.Indexed(telemetry.NetrunTopo, l, field)); got != want {
				t.Errorf("link %d recorded %s %d, stats %d", l, field, got, want)
			}
		}
	}
	if got := rec.Counter(telemetry.NetrunRetries); got != retries {
		t.Errorf("recorded retries %d, stats %d", got, retries)
	}
	if got := rec.Counter(telemetry.NetrunBadFrames); got != badFrames {
		t.Errorf("recorded bad frames %d, stats %d", got, badFrames)
	}
	if got := rec.Counter(telemetry.NetrunDupFrames); got != dupFrames {
		t.Errorf("recorded dup frames %d, stats %d", got, dupFrames)
	}
	if got := rec.Counter(telemetry.NetrunWireBits); got != res.Stats.WireBits {
		t.Errorf("recorded wire bits %d, stats %d", got, res.Stats.WireBits)
	}
	if got := recordedFaults(rec, k); got != res.Stats.Faults {
		t.Errorf("recorded faults %+v, stats %+v", got, res.Stats.Faults)
	}
	if got := rec.Counter(telemetry.NetrunFaults); int(got) !=
		res.Stats.Faults.Drops+res.Stats.Faults.Duplicates+res.Stats.Faults.Corruptions+res.Stats.Faults.Delays {
		t.Errorf("recorded fault total %d, stats %+v", got, res.Stats.Faults)
	}
	// The board-level accounting flows through the same Stepper the
	// sequential runtime uses.
	if got := rec.Counter(telemetry.BlackboardBits); got != int64(res.Stats.BoardBits) {
		t.Errorf("recorded board bits %d, stats %d", got, res.Stats.BoardBits)
	}
	if got := rec.Counter(telemetry.BlackboardMessages); got != int64(res.Board.NumMessages()) {
		t.Errorf("recorded messages %d, board has %d", got, res.Board.NumMessages())
	}
	var perPlayer int64
	for i := 0; i < k; i++ {
		perPlayer += rec.Counter(telemetry.Indexed(telemetry.BlackboardPlayer, i, "bits"))
	}
	if perPlayer != int64(res.Stats.BoardBits) {
		t.Errorf("per-player bits sum to %d, want %d", perPlayer, res.Stats.BoardBits)
	}
}

func TestRecorderObservesRun(t *testing.T) {
	inst, err := disj.GenerateDisjoint(rng.New(505), 48, 3, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	proto, err := disj.NewOptimalProtocol(inst, disj.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := faults.Parse("drop=0.05,dup=0.05")
	if err != nil {
		t.Fatal(err)
	}
	rec := telemetry.NewCollector()
	cfg := netrun.Config{
		Faults: plan, Seed: 5, Timeout: 40 * time.Millisecond, MaxRetries: 10,
		Recorder: rec, Limits: proto.Limits(),
	}
	res, err := netrun.Run(proto.Scheduler(), proto.Players(), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.Counter(telemetry.NetrunTurns); got != int64(res.Board.NumMessages()) {
		t.Fatalf("recorded %d turns for %d messages", got, res.Board.NumMessages())
	}
	if got := rec.Hist(telemetry.NetrunTurnNs).Count; got != int64(res.Board.NumMessages()) {
		t.Fatalf("turn latency histogram has %d samples for %d messages", got, res.Board.NumMessages())
	}
	if got := rec.Counter(telemetry.NetrunCrashes); got != 0 {
		t.Fatalf("spurious crash count %d", got)
	}
	assertRecorderMatchesStats(t, rec, res, 3)
}

// A run publishes only the counters it has something in: a fault-free run
// into a fresh Collector shows wire bits and ack latency per link, and no
// retry, bad-frame, duplicate or fault series. Two runs into one Collector
// add up in its cells, and a run into a second Collector records nothing
// into the first.
func TestRecorderShowsOnlyRecordedMetrics(t *testing.T) {
	inst, err := disj.GenerateDisjoint(rng.New(7), 32, 3, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	run := func(rec *telemetry.Collector) *netrun.Result {
		t.Helper()
		proto, err := disj.NewOptimalProtocol(inst, disj.Options{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := netrun.Run(proto.Scheduler(), proto.Players(), nil, netrun.Config{Recorder: rec, Limits: proto.Limits()})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	rec, other := telemetry.NewCollector(), telemetry.NewCollector()
	first := run(rec)
	run(other)
	second := run(rec)
	for name := range rec.Snapshot() {
		for _, absent := range []string{"retries", "bad_frames", "dup_frames", "faults"} {
			if strings.Contains(name, absent) {
				t.Errorf("fault-free run shows %s", name)
			}
		}
	}
	for l := 0; l < 3; l++ {
		name := telemetry.Indexed(telemetry.NetrunTopo, l, "wire_bits")
		if got, want := rec.Counter(name), first.Stats.PerLink[l].WireBits+second.Stats.PerLink[l].WireBits; got != want {
			t.Errorf("%s = %d over two runs, want %d", name, got, want)
		}
		if got := rec.Hist(telemetry.Indexed(telemetry.NetrunTopo, l, "ack_ns")).Count; got == 0 {
			t.Errorf("link %d has no ack latency samples", l)
		}
	}
	if got, want := other.Counter(telemetry.NetrunWireBits), first.Stats.WireBits; got != want {
		t.Errorf("second collector counted %d wire bits, want one run's %d", got, want)
	}
}

// TestRecorderMatchesStatsOnRepairPaths is the regression test for the
// PR 2 hook inconsistency: corruption exercises the NACK path and drops
// the known-loss immediate-retransmit path, both of which the old Hooks
// missed. Retransmission counters must match the wire log exactly.
func TestRecorderMatchesStatsOnRepairPaths(t *testing.T) {
	inst, err := disj.GenerateDisjoint(rng.New(506), 64, 4, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	proto, err := disj.NewOptimalProtocol(inst, disj.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := faults.Parse("drop=0.1,corrupt=0.1")
	if err != nil {
		t.Fatal(err)
	}
	rec := telemetry.NewCollector()
	res, err := netrun.Run(proto.Scheduler(), proto.Players(), nil, netrun.Config{
		Faults: plan, Seed: 9, Timeout: 40 * time.Millisecond, MaxRetries: 12,
		Recorder: rec, Limits: proto.Limits(),
	})
	if err != nil {
		t.Fatal(err)
	}
	var retries int64
	for _, ls := range res.Stats.PerLink {
		retries += ls.Retries
	}
	if retries == 0 {
		t.Fatal("fault mix produced no retransmissions; test is vacuous")
	}
	assertRecorderMatchesStats(t, rec, res, 4)

	// Recording must not perturb the execution: the repaired networked
	// transcript stays bit-identical to the sequential reference.
	ref, err := disj.NewOptimalProtocol(inst, disj.Options{})
	if err != nil {
		t.Fatal(err)
	}
	requireSameBoard(t, seqFingerprint(t, ref, nil), res.Board)
}

// TestRecorderMatchesStatsOnDroppedDuplicates pins a frame that draws
// both a drop and a duplicate: the duplicate counts in Stats.Faults, as
// the injector decided it, though nothing of it reaches the wire, so it
// must count in the recorded fault counters too. With no corruption in
// the plan, every duplicate of a frame that was not dropped is discarded
// once at the receiver, so Duplicates exceeds the summed DupFrames by
// exactly the duplicates drawn for dropped frames; the test needs some.
func TestRecorderMatchesStatsOnDroppedDuplicates(t *testing.T) {
	inst, err := disj.GenerateDisjoint(rng.New(507), 64, 4, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	proto, err := disj.NewOptimalProtocol(inst, disj.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := faults.Parse("drop=0.3,dup=0.3")
	if err != nil {
		t.Fatal(err)
	}
	rec := telemetry.NewCollector()
	res, err := netrun.Run(proto.Scheduler(), proto.Players(), nil, netrun.Config{
		Faults: plan, Seed: 3, Timeout: 40 * time.Millisecond, MaxRetries: 12,
		Recorder: rec, Limits: proto.Limits(),
	})
	if err != nil {
		t.Fatal(err)
	}
	var dupFrames int64
	for _, ls := range res.Stats.PerLink {
		dupFrames += ls.DupFrames
	}
	if int64(res.Stats.Faults.Duplicates) <= dupFrames {
		t.Fatalf("%d duplicates drawn, %d discarded: no dropped frame drew a duplicate; test is vacuous",
			res.Stats.Faults.Duplicates, dupFrames)
	}
	assertRecorderMatchesStats(t, rec, res, 4)
}

// TestRecorderMatchesStatsOnCrash pins the runs that end early: a crashed
// run publishes its partial Stats and board exactly once, with no
// run-level board samples, since its scheduler never halted; and a run
// that aborts on a player's failure publishes what it did, although Run
// returns no Result.
func TestRecorderMatchesStatsOnCrash(t *testing.T) {
	const k = 4
	inst, err := disj.GenerateDisjoint(rng.New(508), 64, k, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := faults.Parse("drop=0.1,dup=0.1,crash=1@1")
	if err != nil {
		t.Fatal(err)
	}
	crashRun := func(t *testing.T, rec *telemetry.Collector, seed uint64) *netrun.Result {
		t.Helper()
		proto, err := disj.NewOptimalProtocol(inst, disj.Options{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := netrun.Run(proto.Scheduler(), proto.Players(), nil, netrun.Config{
			Faults: plan, Seed: seed, Timeout: 40 * time.Millisecond, MaxRetries: 12,
			Recorder: rec, Limits: proto.Limits(),
		})
		if !errors.Is(err, netrun.ErrPlayerCrashed) || res == nil {
			t.Fatalf("err = %v, result %v: want a crash with a partial result", err, res)
		}
		if res.Board.NumMessages() == 0 || res.Stats.Faults.Total() == 0 {
			t.Fatalf("partial run has %d messages and %v faults; test is vacuous", res.Board.NumMessages(), res.Stats.Faults)
		}
		return res
	}
	noRunSamples := func(t *testing.T, rec *telemetry.Collector) {
		t.Helper()
		for _, name := range []string{telemetry.BlackboardRounds, telemetry.BlackboardRunBits} {
			if got := rec.Hist(name); got.Count != 0 {
				t.Errorf("%s = %+v, but no scheduler halted", name, got)
			}
		}
	}

	t.Run("crash", func(t *testing.T) {
		rec := telemetry.NewCollector()
		res := crashRun(t, rec, 1)
		assertRecorderMatchesStats(t, rec, res, k)
		noRunSamples(t, rec)
		if got := rec.Counter(telemetry.NetrunCrashes); got != 1 {
			t.Errorf("recorded %d crashes, want 1", got)
		}
	})

	t.Run("two crashes", func(t *testing.T) {
		rec := telemetry.NewCollector()
		a, b := crashRun(t, rec, 1), crashRun(t, rec, 2)
		// The sum of the two partial results: their boards back to back,
		// their Stats added link by link.
		board, err := blackboard.NewBoard(k, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, res := range []*netrun.Result{a, b} {
			for _, m := range res.Board.Messages() {
				if err := board.Append(m); err != nil {
					t.Fatal(err)
				}
			}
		}
		sum := &netrun.Result{Board: board, Stats: a.Stats}
		sum.Stats.PerLink = append([]netrun.LinkStats(nil), a.Stats.PerLink...)
		for l, ls := range b.Stats.PerLink {
			p := &sum.Stats.PerLink[l]
			p.WireBits += ls.WireBits
			p.Retries += ls.Retries
			p.BadFrames += ls.BadFrames
			p.DupFrames += ls.DupFrames
			p.Faults.Add(ls.Faults)
		}
		sum.Stats.WireBits += b.Stats.WireBits
		sum.Stats.BoardBits += b.Stats.BoardBits
		sum.Stats.Faults.Add(b.Stats.Faults)
		assertRecorderMatchesStats(t, rec, sum, k)
		noRunSamples(t, rec)
		if got := rec.Counter(telemetry.NetrunCrashes); got != 2 {
			t.Errorf("recorded %d crashes, want 2", got)
		}
	})

	t.Run("abort", func(t *testing.T) {
		// Every player writes one bit per turn until five messages are on
		// the board; the next speaker fails.
		const messages = 5
		sched := &blackboard.RoundRobin{K: k}
		players := make([]blackboard.Player, k)
		for i := range players {
			players[i] = blackboard.FuncPlayer(func(b *blackboard.Board) (blackboard.Message, error) {
				if b.NumMessages() >= messages {
					return blackboard.Message{}, errors.New("player gives up")
				}
				return blackboard.Message{Player: i, Bits: []byte{0x80}, Len: 1}, nil
			})
		}
		rec := telemetry.NewCollector()
		res, err := netrun.Run(sched, players, nil, netrun.Config{Timeout: 100 * time.Millisecond, Recorder: rec})
		if err == nil || res != nil {
			t.Fatalf("Run = %v, %v; want no Result and the player's error", res, err)
		}
		if got := rec.Counter(telemetry.BlackboardMessages); got != messages {
			t.Errorf("recorded %d messages, want %d", got, messages)
		}
		if got := rec.Counter(telemetry.BlackboardBits); got != messages {
			t.Errorf("recorded %d board bits, want %d", got, messages)
		}
		if got := rec.Counter(telemetry.NetrunWireBits); got == 0 {
			t.Error("aborted run recorded no wire bits")
		}
		if got := rec.Counter(telemetry.NetrunTurns); got != messages {
			t.Errorf("recorded %d turns, want %d", got, messages)
		}
		noRunSamples(t, rec)
	})
}

// A crashed player must surface as a typed error with the partial
// transcript preserved.
func TestPlayerCrash(t *testing.T) {
	const k = 3
	// A trivial round-robin protocol: every player writes one "1" bit,
	// three full rounds.
	newProto := func() (blackboard.Scheduler, []blackboard.Player) {
		sched := &blackboard.RoundRobin{K: k, Stop: func(b *blackboard.Board) (bool, error) {
			return b.NumMessages() >= 3*k, nil
		}}
		players := make([]blackboard.Player, k)
		for i := range players {
			i := i
			players[i] = blackboard.FuncPlayer(func(b *blackboard.Board) (blackboard.Message, error) {
				return blackboard.Message{Player: i, Bits: []byte{0x80}, Len: 1}, nil
			})
		}
		return sched, players
	}

	sched, players := newProto()
	rec := telemetry.NewCollector()
	cfg := netrun.Config{
		Faults:  faults.Plan{CrashTurns: map[int]int{1: 1}},
		Timeout: 30 * time.Millisecond, MaxRetries: 2,
		Recorder: rec,
	}
	res, err := netrun.Run(sched, players, nil, cfg)
	if !errors.Is(err, netrun.ErrPlayerCrashed) {
		t.Fatalf("err = %v, want ErrPlayerCrashed", err)
	}
	var ce *netrun.CrashError
	if !errors.As(err, &ce) || ce.Player != 1 {
		t.Fatalf("crash error = %+v", err)
	}
	if res == nil {
		t.Fatal("crash returned no partial result")
	}
	if len(res.Crashed) != 1 || res.Crashed[0] != 1 {
		t.Fatalf("Crashed = %v, want [1]", res.Crashed)
	}
	// Player 1 crashes on its second turn: messages 0..3 land (p0 p1 p2 p0),
	// the fifth (p1 again) never arrives.
	if res.Board.NumMessages() != 4 {
		t.Fatalf("partial board has %d messages, want 4", res.Board.NumMessages())
	}
	if got := rec.Counter(telemetry.NetrunCrashes); got != 1 {
		t.Fatalf("recorded crash count %d, want 1", got)
	}

	// Without the crash the same protocol completes.
	sched, players = newProto()
	res, err = netrun.Run(sched, players, nil, netrun.Config{Timeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Board.NumMessages() != 3*k {
		t.Fatalf("clean run has %d messages, want %d", res.Board.NumMessages(), 3*k)
	}
}

func TestRunValidation(t *testing.T) {
	sched := &blackboard.RoundRobin{K: 1, Stop: func(b *blackboard.Board) (bool, error) { return true, nil }}
	player := blackboard.FuncPlayer(func(b *blackboard.Board) (blackboard.Message, error) {
		return blackboard.Message{Player: 0}, nil
	})
	if _, err := netrun.Run(sched, nil, nil, netrun.Config{}); err == nil {
		t.Fatal("no players accepted")
	}
	if _, err := netrun.Run(sched, []blackboard.Player{nil}, nil, netrun.Config{}); err == nil {
		t.Fatal("nil player accepted")
	}
	if _, err := netrun.Run(sched, []blackboard.Player{player}, nil, netrun.Config{
		Faults: faults.Plan{Drop: 2},
	}); err == nil {
		t.Fatal("invalid fault plan accepted")
	}
	if _, err := netrun.Run(sched, []blackboard.Player{player}, nil, netrun.Config{
		Faults: faults.Plan{CrashTurns: map[int]int{5: 0}},
	}); err == nil {
		t.Fatal("crash for out-of-range player accepted")
	}
	// The zero config must work end to end.
	if _, err := netrun.Run(sched, []blackboard.Player{player}, nil, netrun.Config{}); err != nil {
		t.Fatalf("zero config: %v", err)
	}
}

// E20's corrupt-only cell, over 20 seeds: a corrupted retransmission
// arrives while the receiver's NACK suppression is on, and the sender must
// repair it at once rather than sit out the 1 s ARQ timeout. Every run
// therefore finishes far under one timeout.
func TestCorruptionRepairsWithoutTimeouts(t *testing.T) {
	inst, err := disj.GenerateFromMuN(rng.New(21), 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := faults.Parse("corrupt=0.04")
	if err != nil {
		t.Fatal(err)
	}
	const timeout = time.Second
	for _, topo := range []netrun.Topology{netrun.Star{}, netrun.Ring{}} {
		t.Run(topo.Name(), func(t *testing.T) {
			var corruptions int
			for seed := uint64(1); seed <= 20; seed++ {
				proto, err := disj.NewOptimalProtocol(inst, disj.Options{})
				if err != nil {
					t.Fatal(err)
				}
				start := time.Now()
				res := netFingerprint(t, proto, nil, netrun.Config{Topology: topo, Faults: plan, Seed: seed, Timeout: timeout})
				if elapsed := time.Since(start); elapsed >= timeout/2 {
					t.Fatalf("seed %d took %v: a corrupted frame waited out the %v timeout", seed, elapsed, timeout)
				}
				corruptions += res.Stats.Faults.Corruptions
			}
			if corruptions == 0 {
				t.Fatal("no corruption injected across 20 seeds")
			}
		})
	}
}

// Every goroutine a run starts — player loops and read loops — has exited
// by the time Run returns, on every topology.
func TestRunReleasesGoroutines(t *testing.T) {
	inst, err := disj.GenerateDisjoint(rng.New(505), 48, 4, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := faults.Parse("drop=0.05,dup=0.05,corrupt=0.05")
	if err != nil {
		t.Fatal(err)
	}
	for _, topo := range topologies() {
		t.Run(topo.Name(), func(t *testing.T) {
			before := runtime.NumGoroutine()
			for seed := uint64(1); seed <= 3; seed++ {
				proto, err := disj.NewOptimalProtocol(inst, disj.Options{})
				if err != nil {
					t.Fatal(err)
				}
				netFingerprint(t, proto, nil, netrun.Config{Topology: topo, Faults: plan, Seed: seed, Timeout: time.Second})
			}
			// A goroutine that has called wg.Done may still be returning
			// when Wait does; give it a moment. A leaked one never exits.
			after := runtime.NumGoroutine()
			for deadline := time.Now().Add(time.Second); after > before && time.Now().Before(deadline); after = runtime.NumGoroutine() {
				runtime.Gosched()
			}
			if after > before {
				t.Fatalf("%d goroutines before the runs, %d after", before, after)
			}
		})
	}
}

// A chan-transport run delivers every frame on the sending node's
// goroutine, so while it runs the only goroutines it has started are its k
// player loops (the coordinator runs on the caller's), on every topology
// and through every repair path.
func TestChanRunStartsOnlyPlayerLoops(t *testing.T) {
	const k = 4
	inst, err := disj.GenerateDisjoint(rng.New(606), 48, k, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := faults.Parse("drop=0.05,dup=0.05,corrupt=0.05")
	if err != nil {
		t.Fatal(err)
	}
	for _, topo := range topologies() {
		t.Run(topo.Name(), func(t *testing.T) {
			proto, err := disj.NewOptimalProtocol(inst, disj.Options{})
			if err != nil {
				t.Fatal(err)
			}
			// Speak runs under the run's mutex, which orders the writes to
			// peak, and Run returns only after every player loop has.
			peak := 0
			players := proto.Players()
			for i, p := range players {
				players[i] = blackboard.FuncPlayer(func(b *blackboard.Board) (blackboard.Message, error) {
					peak = max(peak, runtime.NumGoroutine())
					return p.Speak(b)
				})
			}
			before := runtime.NumGoroutine()
			_, err = netrun.Run(proto.Scheduler(), players, nil, netrun.Config{
				Topology: topo, Faults: plan, Seed: 1, Timeout: time.Second, Limits: proto.Limits(),
			})
			if err != nil {
				t.Fatal(err)
			}
			if extra := peak - before; extra > k {
				t.Fatalf("%d goroutines ran beside the caller's during the run, want only the %d player loops", extra, k)
			}
		})
	}
}

// Allocation budget of one fault-free n=64, k=4 run on the default star:
// the 13.9 KB it allocates with its wiring in a few slices, reserved
// boards and reused ack buffers, plus about a sixth. Per-endpoint
// allocations (20.7 KB before) or the channel plumbing before that
// (34.4 KB) coming back would blow it.
func TestRunAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-based budget")
	}
	inst, err := disj.GenerateDisjoint(rng.New(1), 64, 4, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	const budget = 16_500
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			proto, err := disj.NewOptimalProtocol(inst, disj.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := netrun.Run(proto.Scheduler(), proto.Players(), nil, netrun.Config{Limits: proto.Limits()}); err != nil {
				b.Fatal(err)
			}
		}
	})
	if res.N == 0 {
		t.Fatal("benchmark did not run")
	}
	if got := res.AllocedBytesPerOp(); got > budget {
		t.Errorf("%d B/op, budget %d", got, budget)
	}
}
