package promtext

import (
	"math"
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

// TestWriteLabeledSeries pins the label grammar: telemetry.Labeled names
// render as labeled series grouped with their unlabeled family under one
// TYPE line, with values escaped on the way out.
func TestWriteLabeledSeries(t *testing.T) {
	col := telemetry.NewCollector()
	col.Gauge("jobs.queue_depth", 7)
	col.Gauge(telemetry.Labeled("jobs.queue_depth", "tenant", "t1"), 3)
	col.Gauge(telemetry.Labeled("jobs.queue_depth", "tenant", "t2"), 4)
	col.Count(telemetry.Labeled("jobs.tenant.submitted", "tenant", `ev"il\te`+"\n"+`nant`), 1)
	col.Observe(telemetry.Labeled("jobs.queue_wait_ns", "tenant", "t1"), 50)
	col.Observe("jobs.queue_wait_ns", 50)
	var sb strings.Builder
	if _, err := WriteCollector(&sb, col); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		// One TYPE line, unlabeled series first (sorted raw-name order),
		// labeled variants consecutive after it.
		"# TYPE jobs_queue_depth gauge\njobs_queue_depth 7\njobs_queue_depth{tenant=\"t1\"} 3\njobs_queue_depth{tenant=\"t2\"} 4\n",
		// Escapes survive the round trip.
		`jobs_tenant_submitted{tenant="ev\"il\\te\nnant"} 1` + "\n",
		// Histogram labels merge with the generated le label.
		`jobs_queue_wait_ns_bucket{tenant="t1",le="64"} 1` + "\n",
		`jobs_queue_wait_ns_sum{tenant="t1"} 50` + "\n",
		`jobs_queue_wait_ns_count{tenant="t1"} 1` + "\n",
		`jobs_queue_wait_ns_min{tenant="t1"} 50` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q; got:\n%s", want, out)
		}
	}
	if got := strings.Count(out, "# TYPE jobs_queue_depth gauge"); got != 1 {
		t.Errorf("family has %d TYPE lines, want 1:\n%s", got, out)
	}
	if got := strings.Count(out, "# TYPE jobs_queue_wait_ns histogram"); got != 1 {
		t.Errorf("histogram family has %d TYPE lines, want 1:\n%s", got, out)
	}
}

// TestWriteMalformedLabelBlocks pins total sanitization: names whose label
// block does not parse back fall into whole-name sanitization, a user "le"
// key on a histogram is renamed, and duplicate label keys invalidate the
// block rather than emitting an illegal duplicate.
func TestWriteMalformedLabelBlocks(t *testing.T) {
	col := telemetry.NewCollector()
	col.Count(`half{tenant="unclosed`, 1)   // no closing brace
	col.Count(`bad{tenant=noquote}`, 2)     // unquoted value
	col.Count(`dup{a.b="1",a_b="2"}`, 3)    // keys collide after sanitizing
	col.Observe(`hist{le="user"}`, 9)       // user le on a histogram
	col.Gauge(`g{tenant="ok",empty=""}`, 1) // empty value is legal
	var sb strings.Builder
	if _, err := WriteCollector(&sb, col); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"half_tenant__unclosed 1\n",
		"bad_tenant_noquote_ 2\n",
		"dup_a_b__1__a_b__2__ 3\n",
		`hist_bucket{le_="user",le="16"} 1` + "\n",
		`g{tenant="ok",empty=""} 1` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q; got:\n%s", want, out)
		}
	}
	// Every sample line still matches the exposition grammar.
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !sampleLineRe.MatchString(line) {
			t.Errorf("invalid sample line %q", line)
		}
	}
}
