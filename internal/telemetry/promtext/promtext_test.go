package promtext

import (
	"math"
	"regexp"
	"strings"
	"testing"

	"broadcastic/internal/telemetry"
)

func TestSanitizeName(t *testing.T) {
	cases := []struct{ in, want string }{
		{"blackboard.bits", "blackboard_bits"},
		{"netrun.topo.3.wire_bits", "netrun_topo_3_wire_bits"},
		{"netrun.topo.0.faults.drop", "netrun_topo_0_faults_drop"},
		{"already_fine:series", "already_fine:series"},
		{"", "_"},
		{"9lives", "_9lives"},
		{"sp ace/slash-dash", "sp_ace_slash_dash"},
		{"héllo", "h__llo"}, // multi-byte rune: one '_' per byte
	}
	for _, c := range cases {
		if got := SanitizeName(c.in); got != c.want {
			t.Errorf("SanitizeName(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestWriteCounterAndHistogram(t *testing.T) {
	col := telemetry.NewCollector()
	col.Count("blackboard.bits", 1234)
	col.Count("netrun.topo.1.wire_bits", 99)
	col.Observe("sim.cell_ns", 3)   // bucket [2,4)
	col.Observe("sim.cell_ns", 3)   // same bucket
	col.Observe("sim.cell_ns", 100) // bucket [64,128)
	var sb strings.Builder
	if _, err := WriteCollector(&sb, col); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE blackboard_bits counter\nblackboard_bits 1234\n",
		"netrun_topo_1_wire_bits 99\n",
		"# TYPE sim_cell_ns histogram\n",
		"sim_cell_ns_bucket{le=\"4\"} 2\n",
		"sim_cell_ns_bucket{le=\"128\"} 3\n",
		"sim_cell_ns_bucket{le=\"+Inf\"} 3\n",
		"sim_cell_ns_sum 106\n",
		"sim_cell_ns_count 3\n",
		"sim_cell_ns_min 3\n",
		"sim_cell_ns_max 100\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q; got:\n%s", want, out)
		}
	}
	// Counters precede histograms, and the cumulative bucket for a skipped
	// magnitude range is elided (no le="8" line with the same count twice
	// is fine, but no bucket may decrease).
	if strings.Index(out, "blackboard_bits") > strings.Index(out, "sim_cell_ns") {
		t.Error("counters must precede histograms")
	}
}

// TestWriteDeterministic pins the satellite requirement: two writes from
// identical collector states are byte-identical (sorted name order).
func TestWriteDeterministic(t *testing.T) {
	build := func() *telemetry.Collector {
		col := telemetry.NewCollector()
		// Insertion order differs per call; output must not.
		names := []string{"z.last", "a.first", "m.middle", "netrun.topo.10.wire_bits", "netrun.topo.2.wire_bits"}
		for i, n := range names {
			col.Count(n, int64(i+1))
			col.Observe(n+".ns", float64(i+1))
		}
		return col
	}
	var a, b strings.Builder
	if _, err := WriteCollector(&a, build()); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteCollector(&b, build()); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("non-deterministic exposition:\n--- a ---\n%s--- b ---\n%s", a.String(), b.String())
	}
	if a.String() == "" {
		t.Fatal("empty exposition")
	}
}

func TestWriteSpecialFloats(t *testing.T) {
	col := telemetry.NewCollector()
	col.Observe("weird", math.NaN())
	col.Observe("weird", math.Inf(1))
	col.Observe("weird", math.Inf(-1))
	var sb strings.Builder
	if _, err := WriteCollector(&sb, col); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "weird_count 3\n") {
		t.Errorf("want 3 observations recorded, got:\n%s", out)
	}
	if !strings.Contains(out, "weird_sum NaN\n") {
		t.Errorf("NaN sum must render as NaN, got:\n%s", out)
	}
	if err := checkExposition(out); err != nil {
		t.Errorf("special floats broke the exposition grammar: %v\n%s", err, out)
	}
}

func TestWriteCollidingNames(t *testing.T) {
	col := telemetry.NewCollector()
	col.Count("a.b", 1)
	col.Count("a_b", 2) // sanitizes to the same family
	col.Observe("a.b.ns", 1)
	col.Observe("a:b/ns", 1) // collides with a_b_ns series space? (a:b_ns — distinct)
	var sb strings.Builder
	if _, err := WriteCollector(&sb, col); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if err := checkExposition(out); err != nil {
		t.Errorf("collisions broke the exposition grammar: %v\n%s", err, out)
	}
	// Exactly one a_b sample line: the first (sorted) name wins.
	lines := strings.Split(out, "\n")
	samples := 0
	for _, l := range lines {
		if strings.HasPrefix(l, "a_b ") {
			samples++
		}
	}
	if samples != 1 {
		t.Errorf("want exactly 1 a_b sample line, got %d:\n%s", samples, out)
	}
}

func TestWriteEmpty(t *testing.T) {
	var sb strings.Builder
	n, err := Write(&sb, telemetry.Export{})
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 || sb.String() != "" {
		t.Fatalf("empty export must write nothing, wrote %d bytes: %q", n, sb.String())
	}
}

// TestWriteGauge pins the gauge kind end to end: gauges render under their
// own TYPE line, between counters and histograms, with last-write-wins
// values.
func TestWriteGauge(t *testing.T) {
	col := telemetry.NewCollector()
	col.Count("jobs.submitted", 2)
	col.Gauge("jobs.queue_depth", 3)
	col.Gauge("jobs.queue_depth", 1) // last write wins
	col.Gauge("jobs.cache.hit_ratio", 0.5)
	col.Observe("jobs.queue_wait_ns", 100)
	var sb strings.Builder
	if _, err := WriteCollector(&sb, col); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE jobs_queue_depth gauge\njobs_queue_depth 1\n",
		"# TYPE jobs_cache_hit_ratio gauge\njobs_cache_hit_ratio 0.5\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q; got:\n%s", want, out)
		}
	}
	if !(strings.Index(out, "jobs_submitted") < strings.Index(out, "jobs_queue_depth") &&
		strings.Index(out, "jobs_queue_depth") < strings.Index(out, "jobs_queue_wait_ns")) {
		t.Errorf("kinds out of order (want counters, gauges, histograms):\n%s", out)
	}
}

// TestWriteBracedNamesSanitizedWhole pins that a name is sanitized whole,
// braces and quotes included, so no metric name can add a label to the
// exposition: the only label block on the wire is a histogram bucket's
// generated le.
func TestWriteBracedNamesSanitizedWhole(t *testing.T) {
	col := telemetry.NewCollector()
	col.Count(`half{tenant="unclosed`, 1)
	col.Count(`bad{tenant=noquote}`, 2)
	col.Count(`dup{a.b="1",a_b="2"}`, 3)
	col.Observe(`hist{le="user"}`, 9)
	col.Gauge(`g{tenant="ok",empty=""}`, 1)
	col.Gauge(`jobs.queue_depth{tenant="t1"}`, 3)
	var sb strings.Builder
	if _, err := WriteCollector(&sb, col); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"half_tenant__unclosed 1\n",
		"bad_tenant_noquote_ 2\n",
		"dup_a_b__1__a_b__2__ 3\n",
		`hist_le__user___bucket{le="16"} 1` + "\n",
		"hist_le__user___sum 9\n",
		"g_tenant__ok__empty____ 1\n",
		"jobs_queue_depth_tenant__t1__ 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q; got:\n%s", want, out)
		}
	}
	if err := checkExposition(out); err != nil {
		t.Errorf("braced names broke the exposition grammar: %v\n%s", err, out)
	}
	bucket := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*_bucket\{le="[^"]*"\} `)
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "{") && !bucket.MatchString(line) {
			t.Errorf("line %q carries a label other than a bucket's le", line)
		}
	}
}
