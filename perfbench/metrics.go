package main

// metricDef names one printed metric. The lists below are the ones
// BENCHMARK.json declares; harness_test.go keeps the two in step.
type metricDef struct {
	name, unit, better string
}

// endToEnd metrics are printed by every workload's untraced run. Each
// workload fills them with its own user-visible quantity; README.md has
// the table. Times are process CPU seconds (user + system).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ok_ratio", "ratio", "higher"},
	{"peak_rss_mb", "MB", "lower"},
	{"pass_cpu_s", "s", "lower"},
	{"work_per_cpu_s", "1/s", "higher"},
}

// perLayer metrics are printed by every workload's traced run. A layer a
// workload does not reach reads 0.
var perLayer = []metricDef{
	// Stage times of the planner's pipeline, per pass.
	{"profile.collect_s", "s", "lower"},
	{"deepforest.train_s", "s", "lower"},
	{"policy.find_s", "s", "lower"},
	{"policy.evaluate_s", "s", "lower"},
	{"core.predict_ms", "ms", "lower"},
	// Simulated statistics from the program's obs counters, per pass.
	// They repeat exactly for a given seed.
	{"cache.accesses", "count", "lower"},
	{"cache.llc_miss_ratio", "ratio", "lower"},
	{"testbed.runs", "count", "lower"},
	{"testbed.queries", "count", "lower"},
	{"testbed.truncated_runs", "count", "lower"},
	{"queueing.simulations", "count", "lower"},
	{"queueing.queries", "count", "lower"},
	{"fleet.migrations", "count", "lower"},
	// Host cost per unit of simulated work.
	{"cache.ns_per_access", "ns", "lower"},
	{"queueing.ns_per_query", "ns", "lower"},
	// Calibration memo use in the first (cold) set-up.
	{"testbed.calibrations", "count", "lower"},
	{"testbed.calibration_hit_ratio", "ratio", "higher"},
	{"fleet.epoch_ms", "ms", "lower"},
	// Surrogate search.
	{"mrc.curve_s", "s", "lower"},
	{"surrogate.new_s", "s", "lower"},
	{"surrogate.search_s", "s", "lower"},
	{"surrogate.sims_per_plan", "ratio", "lower"},
	// Serving, at the fixed low and high offered rates.
	{"serve.p50_ms.low", "ms", "lower"},
	{"serve.p99_ms.low", "ms", "lower"},
	{"serve.p50_ms.high", "ms", "lower"},
	{"serve.p99_ms.high", "ms", "lower"},
	{"serve.max_rate_per_s", "1/s", "higher"},
	{"serve.sequential_ms", "ms", "lower"},
	{"serve.closed64_per_s", "1/s", "higher"},
	{"serve.closed16_per_s", "1/s", "higher"},
	{"serve.timer_flush_ratio.low", "ratio", "lower"},
	{"serve.timer_flush_ratio.high", "ratio", "lower"},
	{"serve.wait_ms.low", "ms", "lower"},
	{"serve.batch_size_mean.low", "count", "higher"},
	{"serve.batch_size_mean.high", "count", "higher"},
	{"core.build_us_per_row", "us", "lower"},
	{"deepforest.predict_us_per_row", "us", "lower"},
	{"serve.shed", "count", "lower"},
	{"serve.cache_hit_ratio", "ratio", "lower"},
	{"loadgen.late_p99_ms.low", "ms", "lower"},
	{"loadgen.late_p99_ms.high", "ms", "lower"},
	// Accounting of the traced run, in wall seconds.
	{"pass_wall_s", "s", "lower"},
	{"residual_s", "s", "lower"},
	{"residual_share", "ratio", "lower"},
	{"trace.overhead", "s", "lower"},
}

// layerValues starts a per-layer result with every metric at 0, so a
// workload sets only the layers it reaches.
func layerValues() map[string]float64 {
	v := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		v[d.name] = 0
	}
	return v
}
