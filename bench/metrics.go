package main

// metricDef names one metric. BENCHMARK.json at the repository root lists
// the same names, units, directions and bounds; TestManifestMatchesCatalogue
// keeps the two equal.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: the share of the parent's median it may worsen by
	// Exact marks a per-layer count that repeats exactly for a fixed seed
	// on the serial LUD workloads: -check compares it for equality there,
	// and only such a count may back a claim that rests on a count rather
	// than on a time. On the MPI workloads no count is exact, so nobody may
	// claim a gain on one there. Two repetitions of one seed gave: ranks
	// spin while they wait (41,834,697 against 41,834,643 guest instructions
	// for round 0 of clamr_mpi_service); ranks of one world race to
	// translate a block both miss (3,301 against 3,302); a fault that kills
	// a rank aborts its peers wherever they are (2,247 against 2,245
	// messages in round 0 of small_campaign_mix); and about one campaign in
	// fifty loses one run's cross-rank taint (see summaryDocument), which
	// moves the taint and hub counts.
	Exact bool
	Doc   string
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports all of them, measured with tracing off. "Scaled" is divided by the
// host factor (calib.go): seconds as the quiet reference host would have
// taken them. The issue asked for 10% bounds; scaled, the timed metrics
// spread 2-8% of their median over ten seeds, and a bound has to leave the
// driver's two sets of ten room to differ, so every bound is the contract's
// largest.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25,
		Doc: "child process start until the workload accepts its first submit: programs compiled, directories made, hub and chaserd listening, workers polling; scaled, median of 24 set-ups"},
	{Name: "report_s", Unit: "s", Better: "lower", Bound: 0.25,
		Doc: "one round, first submit until its last merged report text is in hand, golden run and translation included; scaled, median of the repetition's rounds"},
	{Name: "runs_per_s", Unit: "1/s", Better: "higher", Bound: 0.25,
		Doc: "injection runs of a round over the round's scaled time, times the submitters; median of the rounds"},
	{Name: "campaign_p50_s", Unit: "s", Better: "lower", Bound: 0.25,
		Doc: "median submit-to-report latency of a round's campaigns, scaled, median of the rounds; equals report_s where a round is one campaign"},
	{Name: "cpu_ms_per_run", Unit: "ms", Better: "lower", Bound: 0.25,
		Doc: "user+system CPU of the child while a round ran, less the calibration kernel's, per injection run; scaled, median of the rounds"},
	{Name: "rss_p95_mb", Unit: "MB", Better: "lower", Bound: 0.25,
		Doc: "95th percentile of the child's resident set, read every 5 ms while its rounds play; the one-sample peak is the per-layer bench.peak_rss_mb"},
	{Name: "trace_overhead_x", Unit: "x", Better: "lower", Bound: 0.25,
		Doc: "the paper's Fig. 10 number on the workload's own programs: an identity-injector traced run over a golden run, warm translation cache, median ratio of 100 alternating pairs"},
}

// perLayer are the metrics of single layers, from the traced repetition. A
// metric a workload does not exercise reads 0.
var perLayer = []metricDef{
	{Name: "tcg.translate_blocks", Unit: "count", Better: "lower", Exact: true, Doc: "blocks translated during round 0"},
	{Name: "tcg.translate_us_per_block", Unit: "us", Better: "lower", Doc: "Translator.Block over every static block of the program, cold"},
	{Name: "tcg.base_hit_ratio", Unit: "ratio", Better: "higher", Doc: "overlay misses the shared base cache served"},
	{Name: "tcg.private_over_shared_x", Unit: "x", Better: "higher", Doc: "PR 2 arm: blocks translated by a 20-run campaign with private caches over the same with the shared cache"},

	{Name: "vm.fast_minstr_per_s", Unit: "Minstr/s", Better: "higher", Doc: "golden run on the fast loop, warm cache, all ranks' instructions over wall time"},
	{Name: "vm.full_minstr_per_s", Unit: "Minstr/s", Better: "higher", Doc: "the same run with NoFastPath and taint tracking on"},
	{Name: "vm.fast_over_full_x", Unit: "x", Better: "higher", Doc: "PR 5 arm: full-loop time over fast-loop time"},
	{Name: "vm.instructions_per_run", Unit: "count", Better: "lower", Exact: true, Doc: "guest instructions retired in round 0 per injection run"},
	{Name: "vm.fastpath_tb_share", Unit: "ratio", Better: "higher", Doc: "blocks executed on the fast loop"},
	{Name: "vm.new_us", Unit: "us", Better: "lower", Doc: "vm.New on the program, warm base cache"},
	{Name: "vm.snapshot_us", Unit: "us", Better: "lower", Doc: "Machine.Snapshot of a machine paused at the 90% site (serial guests)"},
	{Name: "vm.fork_us", Unit: "us", Better: "lower", Doc: "vm.NewFromSnapshot of that snapshot"},

	{Name: "taint.tainted_reads_per_run", Unit: "count", Better: "lower", Exact: true, Doc: "tainted memory reads in round 0 per run"},
	{Name: "taint.tainted_writes_per_run", Unit: "count", Better: "lower", Exact: true, Doc: "tainted memory writes in round 0 per run"},
	{Name: "taint.trace_over_inject_x", Unit: "x", Better: "lower", Doc: "an injected run with tracing over the same run without"},

	{Name: "mpi.golden_world_ms", Unit: "ms", Better: "lower", Doc: "mpi.World.Run of the golden program, no Chaser attached (MPI guests)"},
	{Name: "mpi.msgs_per_run", Unit: "count", Better: "lower", Exact: true, Doc: "MPI messages delivered in round 0 per run"},
	{Name: "mpi.recv_wait_share", Unit: "ratio", Better: "lower", Doc: "rank time blocked in receive, from the mpi_recv_wait_seconds histogram, over rank time available"},

	{Name: "tainthub.publish_per_run", Unit: "count", Better: "lower", Exact: true, Doc: "hub publishes in round 0 per run"},
	{Name: "tainthub.poll_per_run", Unit: "count", Better: "lower", Exact: true, Doc: "hub polls in round 0 per run"},
	{Name: "tainthub.poll_miss_ratio", Unit: "ratio", Better: "lower", Doc: "polls that found nothing published"},
	{Name: "tainthub.rpc_p50_us", Unit: "us", Better: "lower", Doc: "client-side latency of one hub RPC over TCP, replaying round 0 in process"},
	{Name: "tainthub.rpc_p99_us", Unit: "us", Better: "lower", Doc: "its tail (downgrades with the sample count)"},
	{Name: "tainthub.rpc_busy_share", Unit: "ratio", Better: "lower", Doc: "hub server time in RPC handlers over the rounds' time"},
	{Name: "tainthub.wire_bytes_per_rpc", Unit: "B", Better: "lower", Doc: "bytes through the counting proxy per publish or poll"},
	{Name: "tainthub.wal_bytes_per_publish", Unit: "B", Better: "lower", Doc: "hub WAL growth per publish (its consume record included)"},
	{Name: "tainthub.wal_replay_ms", Unit: "ms", Better: "lower", Doc: "OpenDurable on the WAL the rounds left"},
	{Name: "tainthub.rpc_retries", Unit: "count", Better: "lower", Doc: "transport retries of the replay's hub client"},
	{Name: "tainthub.rpc_failed", Unit: "count", Better: "lower", Doc: "hub RPCs that failed after retries"},
	{Name: "tainthub.binary_rpc_per_s", Unit: "1/s", Better: "higher", Doc: "PR 10 arm: publish+poll pairs, binary wire, batching and pipelining"},
	{Name: "tainthub.json_rpc_per_s", Unit: "1/s", Better: "higher", Doc: "PR 10 arm: the same over the JSON wire, one request in flight"},

	{Name: "core.golden_cold_ms", Unit: "ms", Better: "lower", Doc: "core.Run golden, empty base cache"},
	{Name: "core.golden_warm_ms", Unit: "ms", Better: "lower", Doc: "core.Run golden, warm base cache"},
	{Name: "core.injected_run_p50_ms", Unit: "ms", Better: "lower", Doc: "core.Run of a traced injection at a random site, from scratch"},
	{Name: "core.prefix_ms", Unit: "ms", Better: "lower", Doc: "core.PrefixRun to the 90% site (serial guests)"},
	{Name: "core.forked_run_p50_ms", Unit: "ms", Better: "lower", Doc: "core.RunForked from that snapshot"},

	{Name: "campaign.golden_share", Unit: "ratio", Better: "lower", Doc: "golden runs of round 0 times core.golden_cold_ms over the round's worker time"},
	{Name: "campaign.cpu_utilisation", Unit: "ratio", Better: "higher", Doc: "CPU seconds over the rounds' time times two cores"},
	{Name: "campaign.classify_us", Unit: "us", Better: "lower", Doc: "campaign.Classify of one observed run result"},
	{Name: "campaign.journal_append_us", Unit: "us", Better: "lower", Doc: "Journal.Append of one outcome (service workloads)"},
	{Name: "campaign.journal_bytes_per_run", Unit: "B", Better: "lower", Doc: "shard journal bytes left per run"},
	{Name: "campaign.merge_ms", Unit: "ms", Better: "lower", Doc: "MergeJournals over the first campaign's shard journals"},
	{Name: "campaign.fork_hit_ratio", Unit: "ratio", Better: "higher", Doc: "snapshot-cache hits over lookups"},
	{Name: "campaign.fork_fallbacks", Unit: "count", Better: "lower", Doc: "forked runs that fell back to a from-scratch run"},
	{Name: "campaign.snap_cache_bytes", Unit: "B", Better: "lower", Doc: "snapshot cache high-water mark"},
	{Name: "campaign.fork_over_scratch_x", Unit: "x", Better: "higher", Doc: "PR 7 arm: a 40-run pinned-site campaign from scratch over the same forked (lud_site_sweep)"},
	{Name: "campaign.disk_bytes_per_run", Unit: "B", Better: "lower", Doc: "bytes left under the repetition's directory (journals, chaserd WAL, hub WAL and snapshot, summaries) per run"},

	{Name: "server.submit_p50_ms", Unit: "ms", Better: "lower", Doc: "Client.Submit"},
	{Name: "server.queue_wait_p50_ms", Unit: "ms", Better: "lower", Doc: "submit until a worker first claims a shard of that campaign"},
	{Name: "server.claim_p50_ms", Unit: "ms", Better: "lower", Doc: "Control.Claim that returned a shard"},
	{Name: "server.idle_claim_ratio", Unit: "ratio", Better: "lower", Doc: "claims that found no work"},
	{Name: "server.shard_p50_ms", Unit: "ms", Better: "lower", Doc: "server.ExecuteShard"},
	{Name: "server.shard_p95_ms", Unit: "ms", Better: "lower", Doc: "its tail (downgrades with the sample count)"},
	{Name: "server.complete_p50_ms", Unit: "ms", Better: "lower", Doc: "Control.Complete; the last one of a campaign carries the merge"},
	{Name: "server.merge_wait_p50_ms", Unit: "ms", Better: "lower", Doc: "last Complete returned until WaitSummary returns"},
	{Name: "server.campaign_p95_s", Unit: "s", Better: "lower", Doc: "tail of campaign latency (downgrades with the sample count)"},
	{Name: "server.wal_bytes_per_campaign", Unit: "B", Better: "lower", Doc: "chaserd WAL bytes per campaign"},
	{Name: "server.wal_replay_ms", Unit: "ms", Better: "lower", Doc: "OpenStore on the WAL the rounds left"},
	{Name: "server.shards_requeued", Unit: "count", Better: "lower", Doc: "shards requeued or quarantined"},

	{Name: "obs.enabled_overhead_pct", Unit: "%", Better: "lower", Doc: "golden run with a Registry attached over one without"},
	{Name: "trace.provenance_ms", Unit: "ms", Better: "lower", Doc: "RunResult.Provenance of one observed run"},
	{Name: "bench.peak_rss_mb", Unit: "MB", Better: "lower", Doc: "Maxrss of the traced child when its last round ended: the largest of a few spikes, 15-35% apart over ten seeds, so not an end-to-end metric"},
	{Name: "bench.host_factor", Unit: "x", Better: "lower", Doc: "CPU time of the calibration kernel's passes during the traced child's rounds over their time on the quiet reference host: how loud the host was, not a property of the program"},
	{Name: "bench.tracing_overhead_pct", Unit: "%", Better: "lower", Doc: "report_s of the traced repetition over the untraced one of the same seed"},
	{Name: "bench.attributed_share", Unit: "ratio", Better: "higher", Doc: "rounds' wall clock covered by some layer span; reported, not asserted"},
}
