package main

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"broadcastic/internal/telemetry"
)

// metricDef names one reported metric and its unit. The names and their
// split between -trace 0 and -trace 1 are those of BENCHMARK.json.
type metricDef struct {
	name, unit string
}

var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"throughput_ops_s", "1/s"},
	{"heap_kb_per_op", "KiB"},
}

// execExperiments are the experiments whose runner time is reported.
var execExperiments = []string{"E4", "E6", "E20", "E21"}

var perLayerMetrics = func() []metricDef {
	defs := []metricDef{
		{"loadgen.sent", "count"},
		{"loadgen.ok", "count"},
		{"loadgen.latency_p90_ms", "ms"},
		{"loadgen.latency_p99_ms", "ms"},
		{"http.ms_per_op", "ms"},
		{"http.transport_us_p50", "us"},
		{"serve.ms_per_op", "ms"},
		{"serve.post_us_p50", "us"},
		{"serve.post_us_p99", "us"},
		{"serve.get_us_p50", "us"},
		{"serve.resp_kb_per_op", "KiB"},
		{"jobs.queue_ms_per_op", "ms"},
		{"jobs.queue_wait_ms_p50", "ms"},
		{"jobs.queue_wait_ms_p99", "ms"},
		{"jobs.ms_per_op", "ms"},
	}
	for _, e := range execExperiments {
		defs = append(defs, metricDef{"jobs.exec_ms_p50." + e, "ms"})
	}
	return append(defs, []metricDef{
		{"jobs.publish_us_p50", "us"},
		{"jobs.fleet_busy_share", "share"},
		{"jobs.cache.mem_hit_share", "share"},
		{"jobs.cache.disk_hit_share", "share"},
		{"jobs.cache.miss_share", "share"},
		{"jobs.cache.evictions_per_op", "count"},
		{"sim.ms_per_op", "ms"},
		{"sim.cells_per_op", "count"},
		{"core.ms_per_op", "ms"},
		{"core.shard_ms_per_op.ir", "ms"},
		{"core.shard_ms_per_op.lanes", "ms"},
		{"core.shard_ms_per_op.scalar", "ms"},
		{"core.samples_per_op", "count"},
		{"core.ir_share", "share"},
		{"core.lane_share", "share"},
		{"ir.program_hit_ratio", "share"},
		{"ir.compile_ms_total", "ms"},
		{"netrun.ms_per_op", "ms"},
		{"netrun.hops_per_op", "count"},
		{"netrun.hop_us_p50", "us"},
		{"netrun.hop_us_p99", "us"},
		{"netrun.retries_per_op", "count"},
		{"netrun.board_per_wire_bits", "share"},
		{"blackboard.bits_per_op", "bit"},
		{"blackboard.messages_per_op", "count"},
		{"go.cpu_ms_per_op", "ms"},
		{"go.alloc_kb_per_op", "KiB"},
		{"go.gc_cpu_share", "share"},
		{"trace.overhead_pct", "%"},
		{"causal.records_per_op", "count"},
		{"causal.evicted", "count"},
		{"trace.unattributed_spans", "count"},
	}...)
}()

// reportedMetric is one metric in the full report. N is the sample count
// behind a percentile or per-op value, Quantile the percentile actually
// reported (lower than the name's where the sample is too small).
type reportedMetric struct {
	Value    float64 `json:"value"`
	Unit     string  `json:"unit"`
	N        int     `json:"n,omitempty"`
	Quantile float64 `json:"quantile,omitempty"`
}

// report is the full output of one run.
type report struct {
	Workload   string                    `json:"workload"`
	Seed       uint64                    `json:"seed"`
	Traced     bool                      `json:"traced"`
	Seconds    float64                   `json:"seconds"`
	Nproc      int                       `json:"nproc"`
	GOMAXPROCS int                       `json:"gomaxprocs"`
	Correct    bool                      `json:"correct"`
	Attempted  int                       `json:"attempted"`
	Failed     int                       `json:"failed"`
	Checks     checks                    `json:"checks"`
	Metrics    map[string]reportedMetric `json:"metrics"`
}

// checks are the run's output and integrity checks.
type checks struct {
	Wrong             int   `json:"wrongResults"`      // hits or fetched results that did not match
	Rechecked         int   `json:"rechecked"`         // cold results recomputed after the window
	RecheckMismatches int   `json:"recheckMismatches"` // of those, not byte-identical
	Evicted           int64 `json:"evicted"`           // traced pass: flight records lost
	Unattributed      int   `json:"unattributedSpans"` // traced pass
	SumMismatches     int   `json:"sumMismatches"`     // traced pass: ops whose layers miss the latency
	TracedOps         int   `json:"tracedOps"`
}

var units = func() map[string]string {
	m := map[string]string{}
	for _, d := range append(append([]metricDef(nil), endToEndMetrics...), perLayerMetrics...) {
		m[d.name] = d.unit
	}
	return m
}()

func (r *report) set(name string, value float64, n int, quantile float64) {
	if r.Metrics == nil {
		r.Metrics = map[string]reportedMetric{}
	}
	r.Metrics[name] = reportedMetric{Value: value, Unit: units[name], N: n, Quantile: quantile}
}

// setPercentile reports quantile q of xs under the tail rule.
func (r *report) setPercentile(name string, xs []float64, q float64) {
	v, used := percentile(xs, q)
	r.set(name, v, len(xs), used)
}

// addOutcomes counts the pass's ops.
func (r *report) addOutcomes(res passResult) {
	r.Attempted += len(res.ops)
	wrongs := countOutcome(res.ops, wrong)
	r.Failed += countOutcome(res.ops, failed) + wrongs
	r.Checks.Wrong += wrongs
}

func latenciesMs(ops []*op) []float64 {
	var xs []float64
	for _, o := range ops {
		if o.outcome == ok {
			xs = append(xs, float64(o.end.Sub(o.t0))/float64(time.Millisecond))
		}
	}
	return xs
}

func countOutcome(ops []*op, want outcome) int {
	n := 0
	for _, o := range ops {
		if o.outcome == want {
			n++
		}
	}
	return n
}

func (r *report) addEndToEnd(res passResult, setups []float64) {
	okOps := countOutcome(res.ops, ok)
	r.set("setup_s", median(setups), len(setups), 0)
	r.setPercentile("latency_p50_ms", latenciesMs(res.ops), 0.50)
	r.set("throughput_ops_s", float64(okOps)/res.window.Seconds(), okOps, 0)
	r.set("heap_kb_per_op", res.retainedKBPerJob(), len(res.heapJobs), 0)
}

// addPerLayer reports the per-layer metrics: load-generator, HTTP, job
// and engine numbers from the traced pass, Go runtime numbers from the
// untraced one, and the throughput cost of tracing between the two.
func (r *report) addPerLayer(plain, tr passResult, a traceAnalysis) {
	n := countOutcome(tr.ops, ok)
	per := func(v float64) float64 { return ratio(v, float64(n)) }

	r.set("loadgen.sent", float64(len(tr.ops)), 0, 0)
	r.set("loadgen.ok", float64(n), 0, 0)
	plainLatencies := latenciesMs(plain.ops)
	r.setPercentile("loadgen.latency_p90_ms", plainLatencies, 0.90)
	r.setPercentile("loadgen.latency_p99_ms", plainLatencies, 0.99)

	layerMs := func(l int) float64 { return msPer(a.layerNs[l], a.ops) }
	r.set("http.ms_per_op", layerMs(layerHTTP), a.ops, 0)
	r.setPercentile("http.transport_us_p50", a.transportUs, 0.50)
	r.set("serve.ms_per_op", layerMs(layerServe), a.ops, 0)
	r.setPercentile("serve.post_us_p50", a.handlerUs["POST"], 0.50)
	r.setPercentile("serve.post_us_p99", a.handlerUs["POST"], 0.99)
	r.setPercentile("serve.get_us_p50", a.handlerUs["GET"], 0.50)
	var respBytes int
	for _, o := range tr.ops {
		if o.outcome == ok {
			respBytes += o.bytes
		}
	}
	r.set("serve.resp_kb_per_op", per(float64(respBytes)/1024), n, 0)

	r.set("jobs.queue_ms_per_op", layerMs(layerQueue), a.ops, 0)
	r.setPercentile("jobs.queue_wait_ms_p50", a.queueWaitMs, 0.50)
	r.setPercentile("jobs.queue_wait_ms_p99", a.queueWaitMs, 0.99)
	r.set("jobs.ms_per_op", layerMs(layerJobs), a.ops, 0)
	for _, e := range execExperiments {
		r.setPercentile("jobs.exec_ms_p50."+e, a.execMs[e], 0.50)
	}
	r.setPercentile("jobs.publish_us_p50", a.publishUs, 0.50)
	r.set("jobs.fleet_busy_share", ratio(a.runnerNs, float64(r.Nproc)*float64(tr.window)), 0, 0)

	hits, disk, miss := tr.delta(telemetry.JobsCacheHits), tr.delta(telemetry.JobsCacheDiskHits), tr.delta(telemetry.JobsCacheMisses)
	lookups := hits + disk + miss
	r.set("jobs.cache.mem_hit_share", ratio(hits, lookups), int(lookups), 0)
	r.set("jobs.cache.disk_hit_share", ratio(disk, lookups), int(lookups), 0)
	r.set("jobs.cache.miss_share", ratio(miss, lookups), int(lookups), 0)
	r.set("jobs.cache.evictions_per_op", per(tr.delta(telemetry.JobsCacheEvictions)), n, 0)

	r.set("sim.ms_per_op", layerMs(layerSim), a.ops, 0)
	r.set("sim.cells_per_op", per(tr.delta(telemetry.SimCells)), n, 0)
	r.set("core.ms_per_op", layerMs(layerCoreIR)+layerMs(layerCoreLanes)+layerMs(layerCoreScalar), a.ops, 0)
	r.set("core.shard_ms_per_op.ir", layerMs(layerCoreIR), a.ops, 0)
	r.set("core.shard_ms_per_op.lanes", layerMs(layerCoreLanes), a.ops, 0)
	r.set("core.shard_ms_per_op.scalar", layerMs(layerCoreScalar), a.ops, 0)
	samples := tr.delta(telemetry.CoreCICSamples)
	r.set("core.samples_per_op", per(samples), n, 0)
	r.set("core.ir_share", ratio(tr.delta(telemetry.CoreCICIRSamples), samples), 0, 0)
	r.set("core.lane_share", ratio(tr.delta(telemetry.CoreCICLaneSamples), samples), 0, 0)
	progHits, progMisses := tr.delta(telemetry.IRProgramHits), tr.delta(telemetry.IRProgramMisses)
	r.set("ir.program_hit_ratio", ratio(progHits, progHits+progMisses), int(progHits+progMisses), 0)
	r.set("ir.compile_ms_total", tr.histSumDelta(telemetry.IRCompileNs)/1e6, 0, 0)

	r.set("netrun.ms_per_op", layerMs(layerNetrun), a.ops, 0)
	r.set("netrun.hops_per_op", per(float64(a.hops)), n, 0)
	r.setPercentile("netrun.hop_us_p50", a.hopUs, 0.50)
	r.setPercentile("netrun.hop_us_p99", a.hopUs, 0.99)
	r.set("netrun.retries_per_op", per(tr.delta(telemetry.NetrunRetries)), n, 0)
	r.set("netrun.board_per_wire_bits", ratio(tr.delta(telemetry.BlackboardBits), tr.delta(telemetry.NetrunWireBits)), 0, 0)
	r.set("blackboard.bits_per_op", per(tr.delta(telemetry.BlackboardBits)), n, 0)
	r.set("blackboard.messages_per_op", per(tr.delta(telemetry.BlackboardMessages)), n, 0)

	plainOK := countOutcome(plain.ops, ok)
	r.set("go.cpu_ms_per_op", ratio(float64(plain.after.cpu-plain.before.cpu)/float64(time.Millisecond), float64(plainOK)), plainOK, 0)
	r.set("go.alloc_kb_per_op", ratio(float64(plain.after.allocs-plain.before.allocs)/1024, float64(plainOK)), plainOK, 0)
	r.set("go.gc_cpu_share", ratio(plain.after.gcCPU-plain.before.gcCPU, plain.after.totalCPU-plain.before.totalCPU), 0, 0)
	plainRate := float64(plainOK) / plain.window.Seconds()
	tracedRate := float64(n) / tr.window.Seconds()
	r.set("trace.overhead_pct", 100*ratio(plainRate-tracedRate, plainRate), 0, 0)
	r.set("causal.records_per_op", per(float64(tr.after.appended-tr.before.appended)), n, 0)
	r.set("causal.evicted", float64(a.evicted), 0, 0)
	r.set("trace.unattributed_spans", float64(a.unattributed), 0, 0)

	r.Checks.Evicted, r.Checks.Unattributed = a.evicted, a.unattributed
	r.Checks.SumMismatches, r.Checks.TracedOps = a.sumMismatch, a.ops
}

// finish settles correctness: every served result matched, every
// recomputed one was byte-identical, and a traced pass kept its integrity.
func (r *report) finish() {
	r.Correct = r.Checks.Wrong == 0 && r.Checks.RecheckMismatches == 0 &&
		r.Checks.Evicted == 0 && r.Checks.Unattributed == 0 && r.Checks.SumMismatches == 0
}

// write prints the full report and, as the last line, the result object.
func (r *report) write(w io.Writer) error {
	full, err := json.Marshal(r)
	if err != nil {
		return err
	}
	final, err := json.Marshal(r.result())
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", full, final)
	return err
}

// result is the last output line: exactly the keys correct, attempted,
// failed and metrics, each metric with its value and unit.
func (r *report) result() any {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for name, m := range r.Metrics {
		metrics[name] = value{m.Value, m.Unit}
	}
	return struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
