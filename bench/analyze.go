package main

import (
	"time"

	"broadcastic/internal/telemetry/causal"
)

// sumTolerance is how far an op's layer times may sum from its
// client-observed latency.
const sumTolerance = 0.02

// traceAnalysis is what a traced pass's spans say about where its ops
// spent their time.
type traceAnalysis struct {
	ops          int                // ok ops analyzed
	layerNs      [numLayers]float64 // exclusive time summed over those ops
	sumMismatch  int                // ops whose layer times miss their latency by more than sumTolerance
	unattributed int                // shard and hop spans not inside exactly one sim.cell of their trace
	evicted      int64              // flight records evicted
	queueWaitMs  []float64
	execMs       map[string][]float64 // runner time by experiment
	runnerNs     float64              // runner time inside the window, summed over the fleet
	publishUs    []float64            // runner return to the start of the GET that saw Done
	transportUs  []float64            // client request time minus handler time
	handlerUs    map[string][]float64 // handler time by method
	hopUs        []float64
	hops         int
}

// traceSpans are one trace's program spans, from the flight recorder.
type traceSpans struct {
	queue, cells, hops []interval
	shards             []interval
	shardLayer         []int
}

var engineLayer = map[string]int{"ir": layerCoreIR, "lanes": layerCoreLanes, "scalar": layerCoreScalar}

// analyzeTrace attributes every ok op of a traced pass to layers by time
// containment: the op's own interval (http), the handler spans of its
// requests (serve), then the program's queue-wait, runner, cell, shard
// and hop spans of its trace. Parent links are not used: shard and hop
// spans are parented to the job's execute span, not to their cell.
func analyzeTrace(sys *system, res passResult) traceAnalysis {
	a := traceAnalysis{execMs: map[string][]float64{}, handlerUs: map[string][]float64{}}
	held, appended, _ := sys.fr.Stats()
	a.evicted = appended - int64(held)

	wanted := map[causal.TraceID]bool{}
	for _, o := range res.ops {
		if o.outcome == ok && o.trace != 0 {
			wanted[o.trace] = true
		}
	}
	byTrace := map[causal.TraceID]*traceSpans{}
	for _, rec := range sys.fr.Records(0) {
		if rec.Kind != causal.KindSpan || !wanted[rec.Trace] {
			continue
		}
		ts := byTrace[rec.Trace]
		if ts == nil {
			ts = &traceSpans{}
			byTrace[rec.Trace] = ts
		}
		iv := interval{rec.Start, rec.End}
		switch rec.Name {
		case causal.JobQueueWait:
			ts.queue = append(ts.queue, iv)
		case causal.SimCell:
			ts.cells = append(ts.cells, iv)
		case causal.CoreShard:
			layer := layerCoreScalar
			for _, at := range rec.Attrs {
				if l, known := engineLayer[at.Value]; at.Key == "engine" && known {
					layer = l
				}
			}
			ts.shards = append(ts.shards, iv)
			ts.shardLayer = append(ts.shardLayer, layer)
		case causal.NetrunHop:
			ts.hops = append(ts.hops, iv)
			a.hopUs = append(a.hopUs, float64(iv.end-iv.start)/1e3)
		}
	}
	for _, ts := range byTrace {
		a.hops += len(ts.hops)
		for _, iv := range append(append([]interval(nil), ts.shards...), ts.hops...) {
			if containedIn(iv, ts.cells) != 1 {
				a.unattributed++
			}
		}
	}

	sys.spans.mu.Lock()
	defer sys.spans.mu.Unlock()
	epoch := sys.fr.Epoch()
	winStart := int64(res.windowStart.Sub(epoch))
	winEnd := winStart + int64(res.window)
	for _, r := range sys.spans.runners {
		a.runnerNs += float64(max(0, min(r.end, winEnd)-max(r.start, winStart)))
	}
	for _, o := range res.ops {
		if o.outcome != ok {
			continue
		}
		a.ops++
		var ivs [numLayers][]interval
		opIv := interval{int64(o.t0.Sub(epoch)), int64(o.end.Sub(epoch))}
		ivs[layerHTTP] = []interval{opIv}
		handlers := sys.spans.handlers[o.idx]
		for i, h := range handlers {
			ivs[layerServe] = append(ivs[layerServe], h.interval)
			a.handlerUs[h.method] = append(a.handlerUs[h.method], float64(h.end-h.start)/1e3)
			if i < len(o.reqs) {
				client := o.reqs[i]
				a.transportUs = append(a.transportUs, float64((client.end-client.start)-(h.end-h.start))/1e3)
			}
		}
		if runner, ran := sys.spans.runners[o.trace]; ran && o.trace != 0 {
			ivs[layerJobs] = []interval{runner.interval}
			a.execMs[runner.experiment] = append(a.execMs[runner.experiment], float64(runner.end-runner.start)/1e6)
			if n := len(handlers); n > 0 && handlers[n-1].method == "GET" {
				a.publishUs = append(a.publishUs, float64(handlers[n-1].start-runner.end)/1e3)
			}
		}
		if ts := byTrace[o.trace]; ts != nil {
			ivs[layerQueue] = ts.queue
			ivs[layerSim] = ts.cells
			ivs[layerNetrun] = ts.hops
			for i, iv := range ts.shards {
				ivs[ts.shardLayer[i]] = append(ivs[ts.shardLayer[i]], iv)
			}
			for _, q := range ts.queue {
				a.queueWaitMs = append(a.queueWaitMs, float64(q.end-q.start)/1e6)
			}
		}
		ex := exclusiveTimes(&ivs)
		var sum int64
		for l, ns := range ex {
			a.layerNs[l] += float64(ns)
			sum += ns
		}
		latency := opIv.end - opIv.start
		if diff := float64(sum - latency); diff > sumTolerance*float64(latency) || -diff > sumTolerance*float64(latency) {
			a.sumMismatch++
		}
	}
	return a
}

// containedIn counts the intervals of within that contain iv.
func containedIn(iv interval, within []interval) int {
	n := 0
	for _, w := range within {
		if w.start <= iv.start && iv.end <= w.end {
			n++
		}
	}
	return n
}

func msPer(ns float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return ns / float64(time.Millisecond) / float64(n)
}
