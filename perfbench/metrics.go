package main

// perLayer lists every per-layer metric a traced run reports, with its
// unit. A layer a workload does not exercise reports 0. Compile
// workloads report times and counts per pass over the kernels; the
// serve workload reports times as medians per call and counts per run.
var perLayer = []struct{ name, unit string }{
	{"linalg.eigen_ms", "ms"}, {"linalg.eigen_n", "count"},
	{"spectral.kmeans_ms", "ms"}, {"spectral.kmeans_calls", "count"}, {"spectral.cdg_ms", "ms"},
	{"clustermap.map_ms", "ms"}, {"clustermap.candidates", "count"}, {"clustermap.limited", "count"},
	{"clustermap.greedy_rows", "count"},
	{"ilp.nodes", "count"}, {"ilp.solves", "count"}, {"ilp.nodes_per_solve", "ratio"},
	{"mrrg.build_ms", "ms"}, {"mrrg.edges", "count"},
	{"spr.map_ms", "ms"}, {"spr.ii_attempts", "count"}, {"spr.success_ratio", "ratio"},
	{"spr.relaxations", "count"}, {"spr.pf_iters", "count"}, {"spr.ripups", "count"}, {"spr.sa_moves", "count"},
	{"ultrafast.map_ms", "ms"}, {"ultrafast.ii_attempts", "count"},
	{"verify.check_ms", "ms"}, {"verify.failures", "count"}, {"sim.verify_ms", "ms"},
	{"core.pipeline_ms", "ms"}, {"core.unaccounted_ms", "ms"}, {"core.fallbacks", "count"},
	{"replay.mismatches", "count"},
	{"dfg.build_us", "us"}, {"dfg.fingerprint_us", "us"}, {"dfg.codec_us", "us"},
	{"service.key_us", "us"}, {"service.cache_get_us", "us"}, {"service.cache_put_ms", "ms"},
	{"service.queue_wait_ms", "ms"}, {"service.run_ms", "ms"}, {"service.hit_ratio", "ratio"},
	{"service.coalesced", "count"}, {"service.rejected", "count"}, {"service.executed_per_distinct", "ratio"},
	{"journal.append_ms", "ms"}, {"journal.records_per_miss", "ratio"},
	{"serve.hit_p50_ms", "ms"}, {"serve.hit_tail_ms", "ms"}, {"serve.miss_p50_ms", "ms"}, {"serve.miss_tail_ms", "ms"},
	{"loadgen.late_p99_ms", "ms"}, {"loadgen.sent", "count"}, {"loadgen.failed", "count"},
	{"trace.overhead_ratio", "ratio"},
}

// layerMetrics turns measured values into the traced run's metrics,
// filling every per-layer name.
func layerMetrics(vals map[string]float64) map[string]Metric {
	out := make(map[string]Metric, len(perLayer))
	for _, l := range perLayer {
		out[l.name] = Metric{Value: vals[l.name], Unit: l.unit}
	}
	return out
}
