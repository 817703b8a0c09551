package sim

import (
	"encoding/json"
	"math"
	"sort"
	"strings"
	"testing"

	"broadcastic/internal/telemetry"
	"broadcastic/internal/telemetry/causal"
	"broadcastic/internal/telemetry/tracelog"
)

// renderWith runs an experiment with the given recorder and returns the
// rendered table bytes.
func renderWith(t *testing.T, f func(Config) (*Table, error), workers int, rec *telemetry.Collector) string {
	t.Helper()
	cfg := Config{Seed: 7, Scale: Quick, Workers: workers, Recorder: rec}
	tbl, err := f(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := tbl.Render(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestTelemetryEquivalence is the observability contract: installing a
// recorder changes no output bit. The same experiments exercised by
// TestSerialEquivalence must render byte-identical tables with a nil
// recorder and with a live collector, serially and in parallel — and E20
// additionally covers the networked runtime's recorder path.
func TestTelemetryEquivalence(t *testing.T) {
	experiments := []struct {
		id string
		f  func(Config) (*Table, error)
	}{
		{"E1", E1DisjScalingN},
		{"E4", E4AndInfoCost},
		{"E10", E10RejectionSampler},
		{"E20", E20NetworkedOverhead},
	}
	for _, e := range experiments {
		bare := renderWith(t, e.f, 1, nil)
		if len(bare) == 0 {
			t.Fatalf("%s: empty render", e.id)
		}
		for _, workers := range []int{1, 4} {
			rec := telemetry.NewCollector()
			if got := renderWith(t, e.f, workers, rec); got != bare {
				t.Fatalf("%s: table with recorder (workers=%d) differs from bare table:\n--- bare ---\n%s--- recorded ---\n%s",
					e.id, workers, bare, got)
			}
			// The equivalence must not be vacuous: the engine recorded cells.
			if cells := rec.Counter(telemetry.SimCells); cells == 0 {
				t.Fatalf("%s: recorder saw no cells (workers=%d)", e.id, workers)
			}
			// Every cell ran under one sim.cell span, timed for the recorder.
			if got, cells := rec.Hist(telemetry.SimCellNs).Count, rec.Counter(telemetry.SimCells); got != cells {
				t.Fatalf("%s: %d cell-time samples for %d cells (workers=%d)", e.id, got, cells, workers)
			}
		}
	}
}

// TestTelemetrySnapshotConsistency cross-checks the estimator counters
// against the experiment's known structure: every recorded shard ran under
// a span, and sample counts are multiples of what a cell requests.
func TestTelemetrySnapshotConsistency(t *testing.T) {
	rec := telemetry.NewCollector()
	if _, err := E4AndInfoCost(Config{Seed: 7, Scale: Quick, Recorder: rec}); err != nil {
		t.Fatal(err)
	}
	shards := rec.Counter(telemetry.CoreCICShards)
	if shards == 0 {
		t.Fatal("E4 recorded no estimator shards")
	}
	if got := rec.Hist(telemetry.CoreCICShardNs).Count; got != shards {
		t.Fatalf("shard wall-time histogram has %d samples for %d shards", got, shards)
	}
	if samples := rec.Counter(telemetry.CoreCICSamples); samples < shards {
		t.Fatalf("recorded %d samples over %d shards", samples, shards)
	}
}

// TestCausalEquivalence extends the observability contract to the causal
// plane: with a live flight recorder, a metrics collector AND a Perfetto
// sink all attached, every table renders byte-identical to the bare run —
// and the equivalence is not vacuous, because the recorder demonstrably
// held cell spans (plus netrun hops for E20 and estimator shards for E4).
// The Perfetto trace nests: at workers 4, concurrent cells and shards sit
// in separate lanes of their row, so no two complete events on one thread
// partially overlap.
func TestCausalEquivalence(t *testing.T) {
	experiments := []struct {
		id   string
		f    func(Config) (*Table, error)
		want string // a record name the experiment must have produced
	}{
		{"E1", E1DisjScalingN, causal.SimCell},
		{"E4", E4AndInfoCost, causal.CoreShard},
		{"E20", E20NetworkedOverhead, causal.NetrunHop},
	}
	for _, e := range experiments {
		bare := renderWith(t, e.f, 1, nil)
		for _, workers := range []int{1, 4} {
			fr := causal.NewRecorder(0)
			col := telemetry.NewCollector()
			sink := tracelog.New(e.id + "-causal")
			cause := fr.StartTraceSink(sink, causal.ExperimentRoot,
				causal.String("experiment", e.id))
			cfg := Config{Seed: 7, Scale: Quick, Workers: workers, Recorder: col, Causal: cause}
			tbl, err := e.f(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var sb strings.Builder
			if err := tbl.Render(&sb); err != nil {
				t.Fatal(err)
			}
			if sb.String() != bare {
				t.Fatalf("%s: fully-traced table (workers=%d) differs from bare table:\n--- bare ---\n%s--- traced ---\n%s",
					e.id, workers, bare, sb.String())
			}
			names := map[string]int{}
			for _, rec := range fr.Records(cause.Trace()) {
				names[rec.Name]++
			}
			if names[causal.SimCell] == 0 {
				t.Errorf("%s: no sim.cell spans recorded (workers=%d)", e.id, workers)
			}
			if names[e.want] == 0 {
				t.Errorf("%s: no %s records (workers=%d); have %v", e.id, e.want, workers, names)
			}
			// The sink teed every record into the Perfetto trace.
			var buf strings.Builder
			if _, err := sink.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(buf.String(), causal.SimCell) {
				t.Errorf("%s: Perfetto trace missing teed sim.cell records", e.id)
			}
			var tr tracelog.Trace
			if err := json.Unmarshal([]byte(buf.String()), &tr); err != nil {
				t.Fatalf("%s: trace does not parse: %v", e.id, err)
			}
			if a, b, ok := partialOverlap(tr); ok {
				t.Errorf("%s: %s and %s partially overlap on pid %d tid %d (workers=%d)",
					e.id, a.Name, b.Name, a.Pid, a.Tid, workers)
			}
		}
	}
}

// partialOverlap finds two complete events on one (pid, tid) that overlap
// without one containing the other — the shape Perfetto cannot nest.
// Times are compared in whole nanoseconds, the records' resolution.
func partialOverlap(tr tracelog.Trace) (a, b tracelog.Event, found bool) {
	type slice struct {
		ev         tracelog.Event
		start, end int64
	}
	byThread := map[[2]int][]slice{}
	for _, ev := range tr.TraceEvents {
		if ev.Phase == "X" {
			start := int64(math.Round(ev.Ts * 1e3))
			key := [2]int{ev.Pid, ev.Tid}
			byThread[key] = append(byThread[key], slice{ev, start, start + int64(math.Round(ev.Dur*1e3))})
		}
	}
	for _, ss := range byThread {
		sort.Slice(ss, func(i, j int) bool { return ss[i].start < ss[j].start })
		var open []slice // enclosing slices, innermost last
		for _, s := range ss {
			for len(open) > 0 && open[len(open)-1].end <= s.start {
				open = open[:len(open)-1]
			}
			if n := len(open); n > 0 && s.end > open[n-1].end {
				return open[n-1].ev, s.ev, true
			}
			open = append(open, s)
		}
	}
	return a, b, false
}
