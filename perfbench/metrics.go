package main

// metricDef is one reported metric. BENCHMARK.json lists the same names,
// units, directions and bounds; TestCatalogMatchesBenchmarkJSON keeps the
// two in step.
type metricDef struct {
	name, unit, better string
	// bound is the share of the parent's median an end-to-end metric may
	// worsen by before a change counts as a regression.
	bound float64
	// moves says, for a per-layer metric, which end-to-end metric on which
	// workload it should move — written down before measuring, so a claimed
	// gain can be checked against the layer it names.
	moves string
}

// endToEnd are the metrics BENCHMARK.json gates, measured with tracing off.
// Their times are the process's CPU time (cpuTime), all threads counted, so
// work moved onto another thread still shows: setup_s is the median CPU
// seconds of one set-up, op_cpu_p50_ms the median CPU time of one op.
// Wall-clock times cannot be gated on the shared 2-vCPU host the benchmark
// was tuned on, whose steal time went from about 1% to 25% and back within
// an hour. In five runs while it was high, solve-contended's op_p50_ms
// spread by 0.25 of its median and its wall-clock set-up by 0.42, against
// 0.04 for op_cpu_p50_ms and 0.07 for setup_s; its op_p50_ms median moved
// by a quarter between two sets of runs of the same code. A mean CPU time
// per op was tried too and spread by 0.10 on serve-fleet, where the cold
// solves after compactions weigh on it. peak_rss_mb has the largest bound
// because serve-fleet's small heap peaks higher when a slow host stretches
// each GC cycle: its ten-seed spread reached 0.12.
//
// Five more are printed on every run but not gated: the wall-clock
// setup_wall_s, op_p50_ms, op_tail_ms (the highest percentile with at least
// ten samples beyond it) and demands_per_s (demands solved per second of
// the timed region), which a client sees, and error_rate, 0 whenever the
// benchmark is healthy, which the result line carries as failed ÷
// attempted.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "op_cpu_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "certified_ratio", unit: "ratio", better: "higher", bound: 0.02},
	{name: "peak_rss_mb", unit: "MiB", better: "lower", bound: 0.25},
}

// perLayer are the traced run's metrics, named after the module that does
// the work. A workload that bypasses a layer reports 0 for its metrics.
var perLayer = []metricDef{
	{name: "treesched.solve_gap_ms", unit: "ms", better: "lower",
		moves: "op_p50_ms on solve-contended (instance build, hashing and LRU inside Solver.Solve)"},
	{name: "treesched.cache_hit_ratio", unit: "ratio", better: "higher",
		moves: "op_p50_ms on solve-contended; 0 while no caller re-solves an identical instance"},
	{name: "treesched.cache_entries", unit: "count", better: "lower",
		moves: "peak_rss_mb on solve-contended; via heap size and runtime.gc_cycles also op_p50_ms there"},
	{name: "treesched.update_ms", unit: "ms", better: "lower", moves: "op_p50_ms on serve-fleet"},
	{name: "treesched.session_solve_ms", unit: "ms", better: "lower", moves: "op_p50_ms on serve-fleet"},
	{name: "treesched.reprepares", unit: "count", better: "lower", moves: "op_tail_ms on serve-fleet"},
	{name: "decomp.layered_ms", unit: "ms", better: "lower", moves: "setup_s on every workload"},
	{name: "engine.prepare_ms", unit: "ms", better: "lower",
		moves: "op_p50_ms and peak_rss_mb on solve-contended; op_p50_ms on dist-fleet"},
	{name: "engine.apply_ms", unit: "ms", better: "lower", moves: "op_p50_ms on serve-fleet"},
	{name: "engine.components_ms", unit: "ms", better: "lower",
		moves: "op_p50_ms on solve-contended and serve-fleet"},
	{name: "engine.serial_solve_ms", unit: "ms", better: "lower", moves: "op_p50_ms on solve-contended"},
	{name: "engine.shard_solve_ms", unit: "ms", better: "lower", moves: "op_p50_ms on serve-fleet"},
	{name: "engine.merge_ms", unit: "ms", better: "lower", moves: "op_p50_ms on serve-fleet"},
	{name: "engine.greedy_ms", unit: "ms", better: "lower", moves: "op_p50_ms on serve-fleet"},
	{name: "engine.solve_gap_ms", unit: "ms", better: "lower", moves: "op_p50_ms on solve-contended"},
	{name: "engine.items", unit: "count", better: "lower", moves: "context for the engine rows"},
	{name: "engine.components", unit: "count", better: "lower", moves: "context for the engine rows"},
	{name: "engine.warm_hit_ratio", unit: "ratio", better: "higher", moves: "op_p50_ms on serve-fleet"},
	{name: "engine.cold_solves", unit: "count", better: "lower", moves: "op_tail_ms on serve-fleet"},
	{name: "engine.intra_lanes", unit: "count", better: "higher", moves: "op_p50_ms on solve-contended"},
	{name: "serve.round_ms", unit: "ms", better: "lower", moves: "op_p50_ms on serve-fleet"},
	{name: "serve.publish_ms", unit: "ms", better: "lower", moves: "op_p50_ms on serve-fleet"},
	{name: "serve.queue_wait_ms", unit: "ms", better: "lower", moves: "op_tail_ms on serve-fleet"},
	{name: "serve.handoff_ms", unit: "ms", better: "lower", moves: "op_p50_ms on serve-fleet"},
	{name: "serve.batch_mean", unit: "count", better: "lower",
		moves: "guard for every serve-fleet metric: one client per tenant keeps it exactly 1"},
	{name: "dist.setup_ms", unit: "ms", better: "lower", moves: "op_p50_ms and peak_rss_mb on dist-fleet"},
	{name: "dist.sim_ms", unit: "ms", better: "lower", moves: "op_p50_ms on dist-fleet"},
	{name: "dist.assemble_ms", unit: "ms", better: "lower", moves: "op_p50_ms on dist-fleet"},
	{name: "dist.schedule_rounds", unit: "count", better: "lower", moves: "dist.sim_ms"},
	{name: "simnet.messages", unit: "count", better: "lower",
		moves: "dist.sim_ms, and through it op_p50_ms on dist-fleet"},
	{name: "simnet.max_message_size", unit: "count", better: "lower",
		moves: "dist.sim_ms, and through it op_p50_ms on dist-fleet"},
	{name: "runtime.alloc_mb_per_op", unit: "MiB", better: "lower",
		moves: "op_p50_ms and peak_rss_mb on every workload"},
	{name: "runtime.allocs_per_op", unit: "count", better: "lower",
		moves: "op_p50_ms and peak_rss_mb on every workload"},
	{name: "runtime.gc_cycles", unit: "count", better: "lower",
		moves: "op_p50_ms and op_tail_ms on every workload"},
	{name: "runtime.gc_pause_ms", unit: "ms", better: "lower",
		moves: "op_p50_ms and op_tail_ms on every workload"},
	{name: "bench.trace_overhead_ratio", unit: "ratio", better: "lower",
		moves: "nothing: traced ÷ untraced op_p50_ms, the cost of tracing"},
}
