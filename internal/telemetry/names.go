package telemetry

// Canonical metric names emitted by the instrumented layers. Each layer
// documents its own semantics next to the emission site; this block is the
// single index consumers (exporters, tests, dashboards) key against. Every
// *_ns histogram observes the duration of one causal span (the record name
// in causal's name index): sim.cell, core.cic.shard, ir.compile,
// netrun.turn, netrun.hop (ack_ns), jobs.queue_wait and jobs.execute
// (job_ns).
const (
	// Board accounting, read off a run's board by internal/blackboard's
	// Stepper.Record when the run ends: the networked runtime calls it on
	// every run, and the sequential blackboard.Run records nothing. The
	// counters include runs cut short by a crash or a failure; the
	// histograms only runs whose scheduler halted. Per-player bits use
	// Indexed(BlackboardPlayer, i, "bits"), for the players that spoke.
	BlackboardMessages    = "blackboard.messages"     // counter: messages appended
	BlackboardBits        = "blackboard.bits"         // counter: protocol bits written
	BlackboardRounds      = "blackboard.rounds"       // histogram: messages per completed run
	BlackboardRunBits     = "blackboard.run_bits"     // histogram: bits per completed run
	BlackboardPublicDraws = "blackboard.public_draws" // histogram: public-RNG draws per completed run
	BlackboardPlayer      = "blackboard.player"       // per-player prefix

	// Concurrent networked runtime (internal/netrun). Per-link metrics use
	// Indexed(NetrunTopo, link, field) with fields "wire_bits", "retries",
	// "bad_frames", "dup_frames", "ack_ns" and "faults.<kind>". A run
	// publishes its counters from its Stats when it ends, and with them its
	// latency samples: ack_ns one per delivered frame, turn_ns one per turn.
	NetrunTurns     = "netrun.turns"      // counter: turns completed
	NetrunWireBits  = "netrun.wire_bits"  // counter: bits on all links, both directions
	NetrunRetries   = "netrun.retries"    // counter: retransmission attempts beyond the first send
	NetrunBadFrames = "netrun.bad_frames" // counter: frames discarded for checksum/layout failure
	NetrunDupFrames = "netrun.dup_frames" // counter: duplicate frames discarded by seq check
	NetrunFaults    = "netrun.faults"     // counter: injected link faults (all kinds, as the injectors decided them)
	NetrunCrashes   = "netrun.crashes"    // counter: players crashed
	NetrunAckNs     = "netrun.ack_ns"     // histogram: data-frame send-to-ack latency
	NetrunTurnNs    = "netrun.turn_ns"    // histogram: turn announcement-to-delivery latency
	NetrunTopo      = "netrun.topo"       // per-link prefix, indexed by physical link in Topology.Links order

	// Experiment harness (internal/sim).
	SimCells  = "sim.cells"   // counter: sweep cells evaluated
	SimCellNs = "sim.cell_ns" // histogram: wall time per sweep cell

	// Estimators (internal/core).
	CoreCICSamples     = "core.cic.samples"      // counter: Monte-Carlo samples drawn
	CoreCICShards      = "core.cic.shards"       // counter: estimator shards evaluated
	CoreCICShardNs     = "core.cic.shard_ns"     // histogram: wall time per shard
	CoreCICLaneSamples = "core.cic.lane_samples" // counter: retired 64-lane engine; never incremented, kept for bench/report.go
	CoreCICIRSamples   = "core.cic.ir_samples"   // counter: samples served by the compiled-IR engine

	// Compiled protocol IR (internal/ir).
	IRCompileNs     = "ir.compile_ns"     // histogram: wall time per program compilation
	IRProgramHits   = "ir.program_hits"   // counter: program-cache lookups served without compiling
	IRProgramMisses = "ir.program_misses" // counter: program-cache lookups that compiled (or re-refused)

	// Live observability plane (internal/serve).
	ServeRunsDroppedUpdates = "serve.runs.dropped_updates" // counter: /runs updates dropped on full subscriber channels

	// Job service (internal/jobs). jobs.cache.bytes is a gauge: the cache
	// sets it to its resident bytes, under its lock, wherever they change
	// (warm-up, store, eviction).
	JobsSubmitted      = "jobs.submitted"       // counter: specs accepted (cache hits included)
	JobsRejected       = "jobs.rejected"        // counter: submissions refused by queue-cap backpressure
	JobsCompleted      = "jobs.completed"       // counter: jobs finished successfully by a worker
	JobsFailed         = "jobs.failed"          // counter: jobs whose run returned an error
	JobsCanceled       = "jobs.canceled"        // counter: jobs canceled by the client
	JobsJobNs          = "jobs.job_ns"          // histogram: wall time per executed job
	JobsQueueWaitNs    = "jobs.queue_wait_ns"   // histogram: submit-to-dispatch wait per executed job
	JobsQueueDepth     = "jobs.queue_depth"     // gauge: queued jobs across tenants
	JobsBitsServed     = "jobs.bits_served"     // counter: result bits returned to clients
	JobsCacheHits      = "jobs.cache.hits"      // counter: results served from the in-memory cache
	JobsCacheDiskHits  = "jobs.cache.disk_hits" // counter: results recovered from the disk spill
	JobsCacheMisses    = "jobs.cache.misses"    // counter: lookups that found nothing anywhere
	JobsCacheEvictions = "jobs.cache.evictions" // counter: entries pushed out of memory by the LRU
	JobsCacheCorrupt   = "jobs.cache.corrupt"   // counter: spill files that failed their checksum, deleted and read as misses
	JobsCacheBytes     = "jobs.cache.bytes"     // gauge: result bytes resident in memory
)
