package main

// The metric names this benchmark prints. BENCHMARK.json at the repository
// root declares the same names, units and directions (the smoke test holds
// the two lists together); benchmark/README.md says what each one means and
// which end-to-end metric each per-layer metric should move.

type metricDef struct {
	name, unit string
}

// endToEnd lists the metrics of an untraced run. Every workload reports every
// one; README.md gives the per-workload meaning of the two legs.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"pipe_ms", "ms"},
	{"serial_ms", "ms"},
	{"pipe_work", "count"},
	{"serial_work", "count"},
	{"alloc_mb", "MB/op"},
}

// perLayer lists the metrics of a traced run, layer by layer (layer = the
// internal/ package name before the dot). A layer a workload never enters
// reports 0.
var perLayer = []metricDef{
	{"source.parse_ms", "ms"},
	{"source.check_ms", "ms"},
	{"source.src_bytes", "count"},
	{"effects.analyze_ms", "ms"},
	{"effects.warnings", "count"},
	{"lower.ast_ms", "ms"},
	{"lower.ir_lines", "count"},
	{"taco.emit_ms", "ms"},
	{"analysis.candidates_ms", "ms"},
	{"analysis.candidates", "count"},
	{"passes.build_ms", "ms"},
	{"passes.stages", "count"},
	{"passes.queues", "count"},
	{"passes.ras", "count"},
	{"commopt.apply_ms", "ms"},
	{"commopt.caps_set", "count"},
	{"commopt.fanouts", "count"},
	{"verify.check_ms", "ms"},
	{"verify.warnings", "count"},
	{"costmodel.analyze_ms", "ms"},
	{"costmodel.rank_corr", "ratio"},
	{"core.compile_self_ms", "ms"},
	{"core.serial_ms", "ms"},
	{"core.rank_ms", "ms"},
	{"core.build_ms", "ms"},
	{"core.verify_ms", "ms"},
	{"core.train_ms", "ms"},
	{"core.search_self_ms", "ms"},
	{"core.enumerated", "count"},
	{"core.searched", "count"},
	{"core.deduped", "count"},
	{"core.skipped", "count"},
	{"core.useful_share", "ratio"},
	{"core.worker_busy_share", "ratio"},
	{"pipeline.instantiate_ms", "ms"},
	{"pipeline.flat_instrs", "count"},
	{"sim.func_ms", "ms"},
	{"sim.func_instrs", "count"},
	{"sim.func_queue_tokens", "count"},
	{"sim.func_ra_events", "count"},
	{"sim.func_trace_mb", "MB"},
	{"sim.func_minstr_per_s", "Minstr/s"},
	{"sim.timing_ms", "ms"},
	{"sim.timing_ns_per_instr", "ns"},
	{"sim.timing_ns_per_cycle", "ns"},
	{"sim.timing_ipc", "ratio"},
	{"sim.timing_issue_cycles", "cycles"},
	{"sim.timing_backend_cycles", "cycles"},
	{"sim.timing_queue_cycles", "cycles"},
	{"sim.timing_other_cycles", "cycles"},
	{"sim.timing_queue_empty_stalls", "count"},
	{"sim.timing_queue_full_stalls", "count"},
	{"sim.timing_mispredicts", "count"},
	{"sim.timing_handler_fires", "count"},
	{"sim.timing_ra_loads", "count"},
	{"sim.aborted_runs", "count"},
	{"cache.l1_miss_share", "ratio"},
	{"cache.l2_miss_share", "ratio"},
	{"cache.l3_miss_share", "ratio"},
	{"cache.mem_accesses", "count"},
	{"native.pipe_ms_p2", "ms"},
	{"native.pipe_ms_p1", "ms"},
	{"native.serial_ms_p2", "ms"},
	{"native.serial_ms_p1", "ms"},
	{"native.instrs", "count"},
	{"native.queue_tokens", "count"},
	{"native.ns_per_token", "ns"},
	{"native.serial_minstr_per_s", "Minstr/s"},
	{"native.sync_share", "ratio"},
	{"native.goroutines", "count"},
	{"native.allocs_per_run", "count"},
	{"workloads.verify_ms", "ms"},
	{"workloads.generate_ms", "ms"},
	{"process.peak_rss_mb", "MB"},
	{"process.gc_cycles", "count"},
	{"process.trace_overhead_share", "ratio"},
}
