package telemetry

// This file is the telemetry-name registry: the single place where a
// `swfpga_*` metric name, the expvar key, or a span name may be spelled
// out as a string. Every other file — in this package and everywhere
// else in the module — must refer to these constants; the
// telemetrynames analyzer (internal/analysis) enforces it, and also
// checks that every name registered here is documented in DESIGN.md §8.
//
// Keeping the names in one audited file is what makes the dashboards
// and the golden-trace tests trustworthy: a renamed or misspelled
// series cannot slip in at a call site, and retiring a name forces the
// documentation and the exhaustiveness check to move with it.

// Metric names (Prometheus exposition series, all swfpga_-prefixed).
const (
	// NameScanCalls counts accelerator scan invocations.
	NameScanCalls = "swfpga_scan_calls_total"
	// NameCellsUpdated counts similarity-matrix cell updates.
	NameCellsUpdated = "swfpga_cells_updated_total"
	// NameArrayCycles counts simulated array clock steps.
	NameArrayCycles = "swfpga_array_cycles_total"
	// NameStrips counts query strips (figure 7 splitting) streamed.
	NameStrips = "swfpga_strips_total"
	// NameComputeSeconds accumulates modeled array execution time.
	NameComputeSeconds = "swfpga_modeled_compute_seconds_total"
	// NameTransferSeconds accumulates modeled PCI link time.
	NameTransferSeconds = "swfpga_modeled_transfer_seconds_total"
	// NameHostSeconds accumulates measured host wall time.
	NameHostSeconds = "swfpga_host_seconds_total"
	// NamePCIBytesIn / NamePCIBytesOut count modeled PCI traffic.
	NamePCIBytesIn  = "swfpga_pci_bytes_in_total"
	NamePCIBytesOut = "swfpga_pci_bytes_out_total"
	// NameFaults counts injected board faults by class.
	NameFaults = "swfpga_faults_total"
	// NameFaultSeconds accumulates modeled fault-recovery link time.
	NameFaultSeconds = "swfpga_modeled_fault_seconds_total"
	// NameChunkFailures counts failed chunk attempts by class.
	NameChunkFailures = "swfpga_chunk_failures_total"
	// NameRetries / NameRedispatches / NameQuarantines count cluster
	// recovery actions.
	NameRetries      = "swfpga_retries_total"
	NameRedispatches = "swfpga_redispatches_total"
	NameQuarantines  = "swfpga_quarantines_total"
	// NameSoftwareChunks counts chunks completed by the software
	// fallback; NameDegradedRuns the scans that needed it.
	NameSoftwareChunks = "swfpga_software_chunks_total"
	NameDegradedRuns   = "swfpga_degraded_runs_total"
	// NameChunkSeconds is the modeled per-scan latency histogram.
	NameChunkSeconds = "swfpga_chunk_modeled_seconds"
	// NamePEOccupancy is the PE-occupancy ratio histogram.
	NamePEOccupancy = "swfpga_pe_occupancy_ratio"
	// NameRecordSeconds is the per-record wall latency histogram.
	NameRecordSeconds = "swfpga_record_wall_seconds"
	// NameStreamBufferBytes gauges the admitted streaming window.
	NameStreamBufferBytes = "swfpga_stream_buffer_bytes"
	// NameStreamStalls counts producer stalls at the memory budget.
	NameStreamStalls = "swfpga_stream_prefetch_stalls_total"
	// NameModeledGCUPS / NameWallGCUPS are the throughput gauges.
	NameModeledGCUPS = "swfpga_modeled_gcups"
	NameWallGCUPS    = "swfpga_wall_gcups"

	// NameServerInflight gauges requests admitted to the daemon's scan
	// scheduler and not yet finished.
	NameServerInflight = "swfpga_server_inflight_requests"
	// NameServerQueueDepth gauges requests waiting in the admission
	// queue (enqueued, not yet pulled by the scheduler).
	NameServerQueueDepth = "swfpga_server_queue_depth"
	// NameServerRequests counts finished requests by outcome (ok,
	// bad_request, shed, draining, timeout, error).
	NameServerRequests = "swfpga_server_requests_total"
	// NameServerShed counts requests shed at admission with 429.
	NameServerShed = "swfpga_server_shed_total"
	// NameServerDegraded counts requests the circuit breaker redirected
	// from a faulty engine to the software oracle.
	NameServerDegraded = "swfpga_server_degraded_total"
	// NameServerBreakerState gauges the degradation breaker
	// (0 closed, 0.5 half-open, 1 open).
	NameServerBreakerState = "swfpga_server_breaker_state"
	// NameServerDrains counts graceful drains started.
	NameServerDrains = "swfpga_server_drains_total"
	// NameServerStalls counts scheduler admissions stalled at the
	// shared memory budget.
	NameServerStalls = "swfpga_server_admission_stalls_total"
	// NameServerSeconds is the request wall-latency histogram.
	NameServerSeconds = "swfpga_server_request_seconds"

	// NameIndexShards / NameIndexRecords / NameIndexPayloadBytes gauge
	// the shape of the packed shard index a process has opened (swsearch
	// -index, swservd -index): shard count, total records, and total
	// packed payload bytes.
	NameIndexShards       = "swfpga_index_shards"
	NameIndexRecords      = "swfpga_index_records"
	NameIndexPayloadBytes = "swfpga_index_payload_bytes"
	// NameIndexShardsBuilt counts shards sealed by swindex builds.
	NameIndexShardsBuilt = "swfpga_index_shards_built_total"
	// NameShardScans counts per-shard scans completed by the
	// scatter-gather merge tier.
	NameShardScans = "swfpga_shard_scans_total"
	// NameShardTopKHits counts hits surviving the per-shard top-k cut
	// and entering the global merge.
	NameShardTopKHits = "swfpga_shard_topk_hits_total"
	// NameShardScanSeconds is the per-shard scan wall-latency histogram.
	NameShardScanSeconds = "swfpga_shard_scan_wall_seconds"

	// NameSwarGroups counts lane groups scanned by the SWAR software
	// kernel (up to swar.GroupSize records per group). A long record
	// scored as overlapping segments of one group counts as one group.
	NameSwarGroups = "swfpga_swar_groups_total"
	// NameSwarRecords counts database records scored inside SWAR lanes
	// (records handed back to the scalar oracle are not counted here).
	// A segmented record counts once, unless one of its segments fell
	// back to the scalar oracle.
	NameSwarRecords = "swfpga_swar_records_total"
	// NameSwarPromotions counts lanes re-scanned in the 16-bit widening
	// tier after an 8-bit saturation poison.
	NameSwarPromotions = "swfpga_swar_promotions_total"
	// NameSwarFallbacks counts lanes that overflowed every SWAR tier and
	// were re-scored by the scalar oracle.
	NameSwarFallbacks = "swfpga_swar_fallbacks_total"

	// NameBuildInfo is the constant-1 build-metadata series; its labels
	// carry the VCS commit and the Go toolchain version, so every
	// BENCH_*.json baseline and every scrape can be tied to the exact
	// binary that produced it.
	NameBuildInfo = "swfpga_build_info"
	// NameUptimeSeconds gauges seconds since process start — the load
	// harness uses it to confirm it scraped a fresh daemon.
	NameUptimeSeconds = "swfpga_uptime_seconds"

	// NameExpvarMetrics is the expvar key the registry snapshot is
	// published under on /debug/vars.
	NameExpvarMetrics = "swfpga_metrics"
)

// Span names (the trace tree of DESIGN.md §8).
const (
	// SpanSearch covers one scan request; SpanSearchBatch one admitted
	// record batch; SpanSearchRecord one database record;
	// SpanSearchParse the streaming parser's producer goroutine.
	SpanSearch       = "search"
	SpanSearchBatch  = "search.batch"
	SpanSearchRecord = "search.record"
	SpanSearchParse  = "search.parse"
	// SpanHostPipeline is the single-board linear-space pipeline;
	// SpanHostRetrieve its phase-3 software retrieval.
	SpanHostPipeline = "host.pipeline"
	SpanHostRetrieve = "host.retrieve"
	// SpanDeviceScan / SpanDeviceScanAffine are one accelerator call.
	SpanDeviceScan       = "device.scan"
	SpanDeviceScanAffine = "device.scan.affine"
	// SpanClusterPipeline / SpanClusterScan / SpanClusterReverse are
	// the distributed pipeline and its two scan phases.
	SpanClusterPipeline = "cluster.pipeline"
	SpanClusterScan     = "cluster.scan"
	SpanClusterReverse  = "cluster.reverse"
	// SpanSystolicRun / SpanSystolicAffine are the cycle-accurate
	// array passes.
	SpanSystolicRun    = "systolic.run"
	SpanSystolicAffine = "systolic.affine"
	// SpanBenchOverhead is the root span of the telemetry-overhead
	// experiment (swbench -run telemetry-overhead).
	SpanBenchOverhead = "overhead"
	// SpanServerRequest covers one HTTP request through swservd, from
	// decode to response.
	SpanServerRequest = "server.request"
	// SpanSearchSharded covers one scatter-gather scan over a shard
	// index; SpanSearchShard one shard's scan within it.
	SpanSearchSharded = "search.sharded"
	SpanSearchShard   = "search.shard"
	// SpanIndexBuild covers one swindex compilation; SpanIndexShard
	// marks each shard as it is sealed.
	SpanIndexBuild = "index.build"
	SpanIndexShard = "index.shard"
)

// RegisteredNames returns every name in the registry — metric series,
// the expvar key, and span names — in declaration order. The
// telemetrynames analyzer checks this set against DESIGN.md; tests use
// it to assert the registry and the live exposition agree.
func RegisteredNames() []string {
	return []string{
		NameScanCalls, NameCellsUpdated, NameArrayCycles, NameStrips,
		NameComputeSeconds, NameTransferSeconds, NameHostSeconds,
		NamePCIBytesIn, NamePCIBytesOut, NameFaults, NameFaultSeconds,
		NameChunkFailures, NameRetries, NameRedispatches, NameQuarantines,
		NameSoftwareChunks, NameDegradedRuns, NameChunkSeconds,
		NamePEOccupancy, NameRecordSeconds, NameStreamBufferBytes,
		NameStreamStalls, NameModeledGCUPS, NameWallGCUPS,
		NameServerInflight, NameServerQueueDepth, NameServerRequests,
		NameServerShed, NameServerDegraded, NameServerBreakerState,
		NameServerDrains, NameServerStalls, NameServerSeconds,
		NameIndexShards, NameIndexRecords, NameIndexPayloadBytes,
		NameIndexShardsBuilt, NameShardScans, NameShardTopKHits,
		NameShardScanSeconds,
		NameSwarGroups, NameSwarRecords, NameSwarPromotions,
		NameSwarFallbacks,
		NameBuildInfo, NameUptimeSeconds,
		NameExpvarMetrics,
		SpanSearch, SpanSearchBatch, SpanSearchRecord, SpanSearchParse,
		SpanHostPipeline, SpanHostRetrieve, SpanDeviceScan,
		SpanDeviceScanAffine, SpanClusterPipeline, SpanClusterScan,
		SpanClusterReverse, SpanSystolicRun, SpanSystolicAffine,
		SpanBenchOverhead, SpanServerRequest,
		SpanSearchSharded, SpanSearchShard, SpanIndexBuild, SpanIndexShard,
	}
}
