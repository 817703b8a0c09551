package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"broadcastic/internal/telemetry/causal"
)

func TestPercentileTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // reversed: percentile must sort
		}
		return xs
	}
	cases := []struct {
		n             int
		q             float64
		value, quant  float64
		beyondAtLeast int
	}{
		{1000, 0.99, 990, 0.99, 10},  // enough samples: the true p99
		{500, 0.99, 490, 0.98, 10},   // lowered to keep ten beyond
		{100, 0.50, 50, 0.50, 50},    // median unaffected
		{15, 0.50, 5, 5.0 / 15, 10},  // even the median is lowered
		{5, 0.99, 1, 0.2, 0},         // too small: the minimum
		{0, 0.99, 0, 0, 0},           // empty
		{2000, 0.99, 1980, 0.99, 20}, // exact rank
	}
	for _, c := range cases {
		v, q := percentile(seq(c.n), c.q)
		if v != c.value || q != c.quant {
			t.Errorf("percentile(n=%d, %v) = %v at %v, want %v at %v", c.n, c.q, v, q, c.value, c.quant)
		}
		if beyond := c.n - int(v); c.n > 0 && beyond < c.beyondAtLeast {
			t.Errorf("n=%d: %d samples beyond the reported value, want ≥ %d", c.n, beyond, c.beyondAtLeast)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Fatalf("quartiles of three = %v, %v; want 1, 4", q1, q3)
	}
}

func TestCompareVerdict(t *testing.T) {
	bound := 0.25
	lower := benchMetric{Name: "latency_p50_ms", Better: "lower", Bound: &bound}
	higher := benchMetric{Name: "throughput_ops_s", Better: "higher", Bound: &bound}
	steady := []float64{10, 10.2, 9.9, 10.1, 10, 9.8, 10.3, 10, 10.1, 9.9}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(steady))
		for i, x := range steady {
			out[i] = f * x
		}
		return out
	}
	wide := []float64{6, 14, 7, 13, 10, 8, 12, 9, 11, 10}
	cases := []struct {
		name      string
		m         benchMetric
		a, b      []float64
		want      string
		regressed bool
	}{
		{"same", lower, steady, scaled(1.05), "ok", false},
		{"worse lower-is-better", lower, steady, scaled(1.3), "WORSE", true},
		{"worse higher-is-better", higher, steady, scaled(0.7), "WORSE", true},
		{"better", higher, steady, scaled(1.3), "ok", false},
		{"spread over the bound", lower, steady, wide, "unresolved", false},
		{"spread over the bound, every run better", lower, wide, scaled(0.5), "ok", false},
		{"missing", lower, steady, nil, "missing", true},
	}
	for _, c := range cases {
		if v, r := verdict(c.m, c.a, c.b); v != c.want || r != c.regressed {
			t.Errorf("%s: verdict %q, regressed %v; want %q, %v", c.name, v, r, c.want, c.regressed)
		}
	}
}

func TestExclusiveTimes(t *testing.T) {
	iv := func(s, e int64) interval { return interval{s, e} }
	cases := []struct {
		name   string
		layers map[int][]interval
		want   map[int]int64
	}{
		{
			name: "overlapping hops count once",
			layers: map[int][]interval{
				layerHTTP:   {iv(0, 100)},
				layerSim:    {iv(10, 90)},
				layerNetrun: {iv(20, 50), iv(40, 70)},
			},
			want: map[int]int64{layerHTTP: 20, layerSim: 30, layerNetrun: 50},
		},
		{
			name: "nested shards take their engine's share of the cell",
			layers: map[int][]interval{
				layerHTTP:      {iv(0, 100)},
				layerServe:     {iv(0, 10), iv(90, 100)},
				layerQueue:     {iv(5, 20)},
				layerJobs:      {iv(20, 85)},
				layerSim:       {iv(22, 50), iv(50, 80)},
				layerCoreIR:    {iv(25, 45)},
				layerCoreLanes: {iv(55, 75)},
			},
			want: map[int]int64{
				layerHTTP: 5, layerServe: 15, layerQueue: 15, layerJobs: 7,
				layerSim: 18, layerCoreIR: 20, layerCoreLanes: 20,
			},
		},
		{
			// A shard parented to the job's execute span rather than its
			// cell is still the cell's by time: attribution never reads
			// parent links, only containment.
			name: "misparented shard",
			layers: map[int][]interval{
				layerHTTP:   {iv(0, 60)},
				layerJobs:   {iv(10, 50)},
				layerSim:    {iv(10, 30), iv(30, 50)},
				layerCoreIR: {iv(32, 48)},
			},
			want: map[int]int64{layerHTTP: 20, layerSim: 24, layerCoreIR: 16},
		},
	}
	for _, c := range cases {
		var in [numLayers][]interval
		var union []interval
		for l, ivs := range c.layers {
			in[l] = ivs
			union = append(union, ivs...)
		}
		got := exclusiveTimes(&in)
		var want [numLayers]int64
		for l, ns := range c.want {
			want[l] = ns
		}
		if got != want {
			t.Errorf("%s: exclusive = %v, want %v", c.name, got, want)
		}
		var sum int64
		for _, ns := range got {
			sum += ns
		}
		if u := unionLength(union); sum != u {
			t.Errorf("%s: layers sum to %d, union is %d", c.name, sum, u)
		}
	}
}

func TestContainmentAttributesMisparentedSpans(t *testing.T) {
	// Two serial cells of one trace; the shard and hop were parented to
	// the execute span, yet each lies inside exactly one cell.
	cells := []interval{{10, 30}, {30, 50}}
	for _, span := range []interval{{32, 48}, {12, 20}} {
		if n := containedIn(span, cells); n != 1 {
			t.Errorf("span %v inside %d cells, want 1", span, n)
		}
	}
	if n := containedIn(interval{25, 35}, cells); n != 0 {
		t.Errorf("straddling span inside %d cells, want 0", n)
	}
}

func TestSeededInputs(t *testing.T) {
	// Ops take counters above the fixture's, as in a run.
	for _, w := range workloads {
		var a, b, c []request
		for j := uint64(fixtureSize); j < fixtureSize+200; j++ {
			a = append(a, closedRequest(w, 7, j))
			b = append(b, closedRequest(w, 7, j))
			c = append(c, closedRequest(w, 8, j))
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed gave different requests", w)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: different seeds gave the same requests", w)
		}
		seen := map[uint64]bool{}
		for _, r := range a {
			fixture := w == "cache_spill" && r.spec.Seed%seedStride < fixtureSize
			if !fixture && seen[r.spec.Seed] {
				t.Errorf("%s: cold spec seed %d repeated", w, r.spec.Seed)
			}
			seen[r.spec.Seed] = true
			if err := r.spec.Validate(); err != nil {
				t.Errorf("%s: invalid spec %+v: %v", w, r.spec, err)
			}
		}
	}

	for _, w := range workloads {
		a, b, c := setupRequests(w, 7, fixtureSize), setupRequests(w, 7, fixtureSize), setupRequests(w, 8, fixtureSize)
		if len(a) != len(mixes[w]) || !reflect.DeepEqual(a, b) {
			t.Errorf("%s: set-up requests %v and %v, want one per kind, equal for one seed", w, a, b)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: different seeds gave the same set-up requests", w)
		}
	}

	f1, f2, f3 := fixtureSpecs(3), fixtureSpecs(3), fixtureSpecs(4)
	if !reflect.DeepEqual(f1, f2) {
		t.Error("fixture: same seed gave different specs")
	}
	// The Zipf-hot keys must cost alike under every seed.
	for i := range f1 {
		if f1[i].Experiment != f3[i].Experiment || f1[i].Seed == f3[i].Seed {
			t.Fatalf("fixture spec %d: %+v under seed 3, %+v under seed 4", i, f1[i], f3[i])
		}
	}
}

func TestMetricNamesMatchBenchmark(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []benchMetric           `json:"end_to_end"`
		PerLayer  []benchMetric           `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Errorf("workloads %v, BENCHMARK.json has %v", workloads, names)
	}
	check := func(kind string, declared []benchMetric, defs []metricDef) {
		want := map[string]string{}
		for _, m := range declared {
			want[m.Name] = m.Unit
		}
		got := map[string]string{}
		for _, d := range defs {
			got[d.name] = d.unit
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s metrics (name: unit) differ from BENCHMARK.json:\n harness %v\n declared %v", kind, got, want)
		}
	}
	check("end_to_end", b.EndToEnd, endToEndMetrics)
	check("per_layer", b.PerLayer, perLayerMetrics)
}

func TestReportEmitsEveryDeclaredMetric(t *testing.T) {
	window := time.Second
	start := time.Now()
	o := &op{idx: 1, req: request{tenant: "interactive-a"}, t0: start, outcome: ok, end: start.Add(time.Millisecond)}
	res := passResult{ops: []*op{o}, windowStart: start, window: window,
		before: meter{counters: map[string]float64{}}, after: meter{counters: map[string]float64{}}}

	e2e := &report{Nproc: 2}
	e2e.addEndToEnd(res, []float64{0.001})
	layer := &report{Nproc: 2}
	layer.addPerLayer(res, res, traceAnalysis{ops: 1})
	for _, c := range []struct {
		r      *report
		traced bool
	}{{e2e, false}, {layer, true}} {
		var got []string
		for name := range c.r.Metrics {
			got = append(got, name)
		}
		sort.Strings(got)
		if want := metricNames(c.traced); !reflect.DeepEqual(got, want) {
			t.Errorf("trace=%v: emitted %v, want %v", c.traced, got, want)
		}
		out, err := json.Marshal(c.r.result())
		if err != nil {
			t.Fatalf("trace=%v: result does not encode: %v", c.traced, err)
		}
		var keys map[string]json.RawMessage
		if err := json.Unmarshal(out, &keys); err != nil || len(keys) != 4 {
			t.Errorf("trace=%v: result keys %v, want correct/attempted/failed/metrics", c.traced, keys)
		}
	}
}

func TestRegistryPairsWatchAndFire(t *testing.T) {
	r := newRegistry()
	const n = 200
	var wg sync.WaitGroup
	var mu sync.Mutex
	calls := map[causal.TraceID]int{}
	for i := 1; i <= n; i++ {
		tr := causal.TraceID(i)
		wg.Add(2)
		go func() {
			defer wg.Done()
			r.fire(tr)
		}()
		go func() {
			defer wg.Done()
			r.watch(tr, func() {
				mu.Lock()
				calls[tr]++
				mu.Unlock()
			})
		}()
	}
	wg.Wait()
	for i := 1; i <= n; i++ {
		if c := calls[causal.TraceID(i)]; c != 1 {
			t.Errorf("trace %d: watcher called %d times, want 1", i, c)
		}
	}
	if len(r.m) != 0 {
		t.Errorf("%d registry entries left after every pair completed", len(r.m))
	}
}

// unionLength is the total length covered by ivs.
func unionLength(ivs []interval) int64 {
	var one [numLayers][]interval
	one[0] = ivs
	return exclusiveTimes(&one)[0]
}

// metricNames lists the names a run with the given trace mode reports.
func metricNames(traced bool) []string {
	defs := endToEndMetrics
	if traced {
		defs = perLayerMetrics
	}
	names := make([]string, len(defs))
	for i, d := range defs {
		names[i] = d.name
	}
	sort.Strings(names)
	return names
}
