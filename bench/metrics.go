package main

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units and directions; bench_test.go checks the two agree.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
}

// endToEnd lists what a user of ACE waits for or pays per operation.
// Every workload reports every one of them, so each has a meaning on
// each workload (see README.md for the per-workload reading of
// read_*/write_* and vs_rmi_ratio).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"op_p50_us", "us", "lower"},
	{"op_p99_us", "us", "lower"},
	{"read_p50_us", "us", "lower"},
	{"write_p50_us", "us", "lower"},
	{"cpu_us_per_op", "us", "lower"},
	{"allocs_per_op", "count", "lower"},
	{"wire_bytes_per_op", "B", "lower"},
	{"heap_inuse_mb", "MiB", "lower"},
	{"vs_rmi_ratio", "ratio", "lower"},
}

// perLayer lists the single-layer metrics, named <module>.<metric>.
// A layer a workload does not exercise reports 0.
var perLayer = []metricDef{
	{"cmdlang.encode_ns", "ns", "lower"},
	{"cmdlang.parse_ns", "ns", "lower"},
	{"cmdlang.allocs_per_roundtrip", "count", "lower"},

	{"wire.frame_ns", "ns", "lower"},
	{"wire.call_us", "us", "lower"},
	{"wire.frames_per_op", "count", "lower"},
	{"wire.call_timeouts", "count", "lower"},

	{"daemon.dispatch_ns", "ns", "lower"},
	{"daemon.pool_overhead_us", "us", "lower"},
	{"daemon.handler_us_per_op", "us", "lower"},
	{"daemon.call_p50_us.bare", "us", "lower"},
	{"daemon.call_p50_us.control", "us", "lower"},
	{"daemon.call_p50_us.typical", "us", "lower"},
	{"daemon.call_p50_us.blob4k", "us", "lower"},
	{"daemon.pool_retries", "count", "lower"},
	{"daemon.notify_sent_per_churn", "count", "lower"},
	{"daemon.shell_unattributed_us", "us", "lower"},

	{"flow.admit_ns", "ns", "lower"},
	{"flow.queue_wait_us_per_op", "us", "lower"},
	{"flow.shed", "count", "lower"},
	{"flow.limit_end", "count", "higher"},

	{"rmi.call_p50_us", "us", "lower"},
	{"rmi.bytes_per_call", "B", "lower"},

	{"pstore.leg_get_us", "us", "lower"},
	{"pstore.leg_put_us", "us", "lower"},
	{"pstore.fanout_self_get_us", "us", "lower"},
	{"pstore.fanout_self_put_us", "us", "lower"},
	{"pstore.put_known_version_us", "us", "lower"},
	{"pstore.probe_share", "ratio", "lower"},
	{"pstore.read_stragglers_per_read", "count", "lower"},
	{"pstore.read_repairs", "count", "lower"},
	{"pstore.bounded_hit_ratio", "ratio", "higher"},
	{"pstore.bounded_fallbacks_per_read", "count", "lower"},
	{"pstore.lease_table_len", "count", "higher"},
	{"pstore.staleness_violations", "count", "lower"},
	{"pstore.staleness_share_end", "ratio", "higher"},

	{"storage.append_us", "us", "lower"},
	{"storage.append_batch_us_per_rec", "us", "lower"},
	{"storage.syncs_per_append", "ratio", "lower"},
	{"storage.snapshots", "count", "lower"},
	{"storage.disk_bytes_per_live_byte", "ratio", "lower"},
	{"storage.recovery_ms", "ms", "lower"},
	{"storage.recovery_records", "count", "lower"},

	{"asd.resolve_hit_ns", "ns", "lower"},
	{"asd.resolve_miss_us", "us", "lower"},
	{"asd.cache_hit_ratio", "ratio", "higher"},
	{"asd.lookup_server_us", "us", "lower"},
	{"asd.directory_lookup_ns", "ns", "lower"},
	{"asd.store_reads_per_op", "count", "lower"},
	{"asd.store_writes_per_renew", "count", "lower"},
	{"asd.read_throughs", "count", "lower"},
	{"asd.expirations", "count", "lower"},

	{"hlc.now_ns", "ns", "lower"},
	{"telemetry.observe_ns", "ns", "lower"},

	{"bench.gen_ns_per_op", "ns", "lower"},
	{"bench.gen_cpu_share", "ratio", "lower"},
	{"bench.clock_ns", "ns", "lower"},
	{"bench.loopback_rtt_us", "us", "lower"},
	{"bench.fsync_us", "us", "lower"},
	{"bench.trace_overhead_ratio", "ratio", "lower"},
	{"bench.write_p99_us", "us", "lower"},
	{"bench.fail_ratio", "ratio", "lower"},
	{"bench.acked_lost", "count", "lower"},
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet renders values under the names and units of defs. A name
// missing from values reports 0: the layer did no work.
func metricSet(defs []metricDef, values map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	return out
}
