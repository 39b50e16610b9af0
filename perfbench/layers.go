package main

// layerMetrics lists every per-layer metric the traced run reports, with
// its unit and which direction is better. A workload that bypasses a
// layer reports 0 for it. The list must match the per_layer entries of
// BENCHMARK.json (a test checks).
var layerMetrics = []struct{ name, unit, better string }{
	// Simulator, sim-paper: workload build, core machine, coherence,
	// predictor, host memory. Times and counts are per pass of the
	// Figure 5/6 matrix.
	{"workload.build_s", "s", "lower"},
	{"core.new_s", "s", "lower"},
	{"core.run_s.baseline", "s", "lower"},
	{"core.run_s.thrifty-halt", "s", "lower"},
	{"core.run_s.oracle-halt", "s", "lower"},
	{"core.run_s.thrifty", "s", "lower"},
	{"core.run_s.ideal", "s", "lower"},
	{"core.episodes", "count", "higher"},
	{"core.sleeps", "count", "higher"},
	{"core.flush_lines", "count", "lower"},
	{"core.host_us_per_episode", "us", "lower"},
	{"coherence.reads", "count", "lower"},
	{"coherence.remote_fills", "count", "lower"},
	{"coherence.invalidations", "count", "lower"},
	{"coherence.flushed_lines", "count", "lower"},
	{"predict.hits", "count", "higher"},
	{"predict.misses", "count", "lower"},
	{"core.alloc_mb", "MB", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_pause_ms", "ms", "lower"},
	// Simulator, sim-scale: sharded core machine and mp machine, per pass.
	{"core.parallel_new_s", "s", "lower"},
	{"core.parallel_run_s", "s", "lower"},
	{"core.events", "count", "lower"},
	{"core.ns_per_event", "ns", "lower"},
	{"core.shard_speedup", "ratio", "higher"},
	{"mp.run_s", "s", "lower"},
	{"mp.shard_speedup", "ratio", "higher"},
	// Live barrier, live-tight: arrival and spin tier.
	{"thrifty.last_wait_us", "us", "lower"},
	{"thrifty.tier.spin", "ratio", "lower"},
	{"thrifty.tier.yield", "ratio", "lower"},
	{"thrifty.tier.timed_park", "ratio", "higher"},
	{"thrifty.tier.park", "ratio", "higher"},
	{"thrifty.allocs_per_round", "count", "lower"},
	{"ref.plain_rounds_per_s", "1/s", "higher"},
	// Live barrier, live-phases: prediction, cut-off and the wheel.
	{"thrifty.early_wakes", "count", "lower"},
	{"thrifty.late_wakes", "count", "lower"},
	{"thrifty.cutoff_hits", "count", "lower"},
	{"thrifty.sites_disabled", "count", "lower"},
	{"thrifty.parked_frac", "ratio", "higher"},
	{"wheel.fired", "count", "lower"},
	{"wheel.cancelled", "count", "higher"},
	{"wheel.steals", "count", "lower"},
	{"wheel.fired_frac", "ratio", "lower"},
	// Service, thriftyd-tcp: client send, server turn-around and fan-out,
	// client wake-up, server counters and wire traffic.
	{"client.send_us.p50", "us", "lower"},
	{"client.send_us.p99", "us", "lower"},
	{"remote.turn_us.p50", "us", "lower"},
	{"remote.turn_us.p99", "us", "lower"},
	{"remote.fanout_us.p50", "us", "lower"},
	{"remote.fanout_us.p99", "us", "lower"},
	{"client.wake_us.p50", "us", "lower"},
	{"client.wake_us.p99", "us", "lower"},
	{"remote.registrations", "count", "higher"},
	{"remote.dup_registrations", "count", "lower"},
	{"remote.replays", "count", "lower"},
	{"remote.breaks", "count", "lower"},
	{"remote.bad_frames", "count", "lower"},
	{"remote.resend_frac", "ratio", "lower"},
	{"remote.frames_per_round", "count", "lower"},
	{"remote.bytes_per_round", "B", "lower"},
	{"remote.directive.spin", "count", "lower"},
	{"remote.directive.yield", "count", "lower"},
	{"remote.directive.timed_park", "count", "higher"},
	{"remote.directive.park", "count", "higher"},
	// The workload-specific figures each run prints, carried into the
	// traced result, and the tracing cost itself.
	{"sim_host_s", "s", "lower"},
	{"table2_err_pp", "pp", "lower"},
	{"savings_err_pp", "pp", "lower"},
	{"late_p50_us", "us", "lower"},
	{"late_p99_us", "us", "lower"},
	{"rtt_p50_us", "us", "lower"},
	{"rtt_p99_us", "us", "lower"},
	{"failed_frac", "ratio", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"trace.overhead_pct", "%", "lower"},
	{"trace.spans", "count", "higher"},
}

// fillLayerDefaults adds a 0 for every per-layer metric the workload did
// not report.
func fillLayerDefaults(m metricSet) {
	for _, l := range layerMetrics {
		if _, ok := m[l.name]; !ok {
			m.put(l.name, 0, l.unit)
		}
	}
}
