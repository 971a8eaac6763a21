package main

// The metric catalogue. BENCHMARK.json at the repository root lists the
// same names, units and directions; the smoke test pins the two
// together, and -compare reads the bounds from BENCHMARK.json.

import "trafficreshape/internal/experiments"

type metricDef struct {
	name, unit, better string
}

// endToEnd are gated: every workload reports each of them on an
// untraced run. An "op" is the workload's unit of useful work: one
// RunAll (paper-quick), one grid cell (grid-local, fleet-cold) or one
// packet (the daemons).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},          // median CPU seconds of one set-up (inputs, training, warm-up)
	{"ops_per_cpu_s", "1/s", "higher"}, // median over measured groups of ops per process CPU second
}

// perLayer are reported by a traced run (-trace 1). A workload that
// never calls into a layer reports that layer's metrics as 0.
var perLayer = func() []metricDef {
	d := []metricDef{
		{"appgen.generate_ms", "ms", "lower"},
		{"appgen.packets", "count", "lower"},
		{"attack.train_ms.svm", "ms", "lower"},
		{"attack.train_ms.mlp", "ms", "lower"},
		{"attack.train_ms.knn", "ms", "lower"},
		{"attack.train_ms.nb", "ms", "lower"},
		{"attack.train_examples", "count", "lower"},
		{"experiments.build_dataset_ms", "ms", "lower"},
	}
	for _, r := range experiments.Registry() {
		d = append(d, metricDef{"experiments.runner_ms." + r.Name, "ms", "lower"})
	}
	return append(d, []metricDef{
		{"experiments.eval_schemes_ms", "ms", "lower"},
		{"experiments.cell_us", "us", "lower"},
		{"experiments.cell_self_us", "us", "lower"},
		{"experiments.merge_us_per_grid", "us", "lower"},
		{"experiments.decomp_coverage_pct", "%", "higher"},
		{"reshape.partition_us_per_cell", "us", "lower"},
		{"reshape.packets_per_cell", "count", "lower"},
		{"defense.partition_us_per_cell.or_morph", "us", "lower"},
		{"defense.partition_us_per_cell.or_split", "us", "lower"},
		{"features.window_extract_us_per_cell", "us", "lower"},
		{"features.windows_per_cell", "count", "lower"},
		{"ml.predict_us_per_cell.svm", "us", "lower"},
		{"ml.predict_us_per_cell.mlp", "us", "lower"},
		{"ml.predict_us_per_cell.knn", "us", "lower"},
		{"ml.predict_us_per_cell.nb", "us", "lower"},
		{"ml.predictions_per_cell", "count", "lower"},
		{"dist.eval_grid_ms", "ms", "lower"},
		{"dist.encode_us_per_cell", "us", "lower"},
		{"dist.decode_us_per_cell", "us", "lower"},
		{"dist.wire_bytes_out_per_cell", "B", "lower"},
		{"dist.wire_bytes_in_per_cell", "B", "lower"},
		{"dist.conn_writes_per_cell", "count", "lower"},
		{"dist.conn_reads_per_cell", "count", "lower"},
		{"dist.conn_write_us_per_cell", "us", "lower"},
		{"dist.batches_per_grid", "count", "lower"},
		{"dist.mean_batch_cells", "count", "higher"},
		{"dist.max_queue_depth", "count", "lower"},
		{"dist.cache_hit_ratio", "ratio", "higher"},
		{"dist.local_cells", "count", "lower"},
		{"dist.reassigned", "count", "lower"},
		{"dist.timed_out", "count", "lower"},
		{"dist.late_duplicates", "count", "lower"},
		{"reshape.adaptive_assign_ns", "ns", "lower"},
		{"attack.classify_us", "us", "lower"},
		{"stream.ingest_ns_mean", "ns", "lower"},
		{"stream.decision_us_p50", "us", "lower"},
		{"stream.decision_us_p99", "us", "lower"},
		{"stream.decision_us_p999", "us", "lower"},
		{"stream.decision_us_p9999", "us", "lower"},
		{"stream.windows_per_mpkt", "count", "lower"},
		{"stream.classified_per_mpkt", "count", "lower"},
		{"stream.leaked_per_mpkt", "count", "lower"},
		{"stream.escalations_per_mpkt", "count", "lower"},
		{"stream.checkpoint_ms", "ms", "lower"},
		{"stream.checkpoint_bytes", "B", "lower"},
		{"stream.drain_ms", "ms", "lower"},
		{"stream.shed", "count", "lower"},
		{"stream.stalled", "count", "lower"},
		{"stream.lost", "count", "lower"},
		{"stream.restarts", "count", "lower"},
		{"bench.wall_s", "s", "lower"},
		{"bench.wall_ops_per_s", "1/s", "higher"},
		{"bench.steal_pct", "%", "lower"},
		{"bench.cpu_util", "ratio", "higher"},
		{"bench.gc_cycles", "count", "lower"},
		{"bench.max_rss_mb", "MB", "lower"},
		{"bench.alloc_bytes_per_op", "B", "lower"},
		{"bench.trace_overhead_pct", "%", "lower"},
	}...)
}()

// unitOf returns the unit of a catalogued metric.
func unitOf(name string) string {
	for _, set := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range set {
			if m.name == name {
				return m.unit
			}
		}
	}
	return ""
}
