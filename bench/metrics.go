package main

// metricDef describes one metric: its unit, which direction is better,
// and the bound by which a later change may worsen it before -compare
// calls the change a regression.
type metricDef struct {
	name   string
	unit   string
	higher bool // higher is better
	// rel is the bound as a share of the reference median; abs is an
	// absolute allowance. The larger of the two applies.
	rel, abs float64
	// contract marks the metrics BENCHMARK.json lists under end_to_end:
	// those defined, and never zero, on every workload. The others are
	// still printed, stored and compared by this program.
	contract bool
	// baselineOnly metrics exist only on workloads with a direct baseline.
	baselineOnly bool
}

// endToEnd is what a user of the system would see, same names on every
// workload. The bounds are what the A/A runs in README.md support on the
// 2-core reference host: counts repeat to a percent; anything timed
// shifts by up to 15 % when the host changes pace for minutes at a time,
// so the timed metrics get the widest bound the contract allows.
var endToEnd = []metricDef{
	{name: "ops_s", unit: "op/s", higher: true, rel: 0.25, contract: true},
	{name: "p50_us", unit: "us", rel: 0.25, contract: true},
	{name: "cpu_us_op", unit: "us/op", rel: 0.25, contract: true},
	{name: "allocs_op", unit: "allocs/op", rel: 0.02, contract: true},
	{name: "bytes_op", unit: "B/op", rel: 0.10, contract: true},
	{name: "tax_ratio", unit: "ratio", rel: 0.15, baselineOnly: true},
	{name: "agent_allocs_op", unit: "allocs/op", rel: 0.03, baselineOnly: true},
	{name: "failed_share", unit: "fraction", abs: 0.001},
	{name: "record_loss_share", unit: "fraction"},
	{name: "rss_peak_mb", unit: "MiB", rel: 0.25, contract: true},
	{name: "setup_s", unit: "s", rel: 0.25, abs: 0.1, contract: true},
}

func endToEndDef(name string) (metricDef, bool) {
	for _, d := range endToEnd {
		if d.name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// layerDef is one per-layer metric and the workload whose traced run
// (or whose ladder rungs) produces it. On every other workload the
// layer does no work that the bench can see, and the metric reads 0.
type layerDef struct {
	name string
	unit string
	home []string
}

var (
	hopsFleet = []string{"hop_small", "hop_faulted", "fleet_soak"}
	everyWl   = []string{"fleet_soak", "hop_small", "hop_faulted", "l7_bulk", "l4_bulk", "log_cycle", "recipe_cycle"}
	withBase  = []string{"fleet_soak", "hop_small", "l7_bulk", "l4_bulk"}
)

var perLayer = []layerDef{
	// The two Gremlin-share figures have no meaning without a direct
	// baseline, so BENCHMARK.json carries them here, not under end_to_end.
	{"tax_ratio", "ratio", withBase},
	{"agent_allocs_op", "allocs/op", withBase},
	// p99 does not repeat within any bound the contract allows on the
	// 2-core reference host (README.md, A/A), so it is reported without one.
	{"p99_us", "us", everyWl},

	{"rules.decide_ns", "ns", []string{"hop_small"}},
	{"rules.decide_allocs", "allocs/op", []string{"hop_small"}},
	{"rules.decide_fired_ns", "ns", []string{"hop_faulted"}},
	{"rules.install_us", "us", []string{"recipe_cycle"}},
	{"rules.ruleset_hash_us", "us", []string{"recipe_cycle"}},

	{"proxy.exchange_self_us", "us", hopsFleet},
	{"proxy.abort_us", "us", []string{"hop_faulted"}},
	{"proxy.delay_overhead_us", "us", []string{"hop_faulted"}},
	{"proxy.modify_us", "us", []string{"hop_faulted"}},
	{"proxy.records_per_exchange", "count", hopsFleet},
	{"proxy.body_self_us_mib", "us/MiB", []string{"l7_bulk"}},

	{"streamproxy.relay_self_us_mib", "us/MiB", []string{"l4_bulk"}},
	{"streamproxy.conn_setup_us", "us", []string{"l4_bulk"}},
	{"streamproxy.conn_records", "count", []string{"l4_bulk"}},
	{"streamproxy.bytes_ratio", "ratio", []string{"l4_bulk"}},
	{"streamproxy.throttle_ratio", "ratio", []string{"l4_bulk"}},

	{"eventlog.sink_log_ns", "ns", hopsFleet},
	{"eventlog.record_encode_ns", "ns", []string{"fleet_soak"}},
	{"eventlog.record_encode_allocs", "allocs/op", []string{"fleet_soak"}},
	{"eventlog.record_decode_ns", "ns", []string{"fleet_soak"}},
	{"eventlog.logbatch_us", "us", []string{"log_cycle"}},
	{"eventlog.select_us", "us", []string{"log_cycle"}},
	{"eventlog.count_us", "us", []string{"log_cycle"}},
	{"eventlog.clear_us", "us", []string{"log_cycle"}},
	{"eventlog.http_rt_us", "us", []string{"log_cycle"}},
	{"eventlog.append_ns_rec", "ns", []string{"log_cycle"}},
	{"eventlog.append_wal_ns_rec", "ns", []string{"log_cycle"}},
	{"eventlog.select_pinned_us", "us", []string{"log_cycle"}},
	{"eventlog.select_scatter_us", "us", []string{"log_cycle"}},
	{"eventlog.buffer_dropped", "count", []string{"fleet_soak"}},
	{"eventlog.buffer_flushes", "count", []string{"fleet_soak"}},
	{"eventlog.buffer_retries", "count", []string{"fleet_soak"}},
	{"eventlog.batch_mean_records", "count", []string{"fleet_soak"}},
	{"eventlog.wal_bytes_rec", "B", []string{"log_cycle"}},
	{"eventlog.flush_lag_ms", "ms", []string{"fleet_soak"}},

	{"trace.id_next_ns", "ns", []string{"hop_small"}},
	{"trace.append_ei_ns", "ns", []string{"hop_small"}},
	{"trace.append_ei_allocs", "allocs/op", []string{"hop_small"}},

	{"core.translate_us", "us", []string{"recipe_cycle"}},
	{"orchestrator.apply_us", "us", []string{"recipe_cycle"}},
	{"orchestrator.revert_us", "us", []string{"recipe_cycle"}},
	{"orchestrator.flush_all_us", "us", []string{"recipe_cycle"}},
	{"checker.assert_us", "us", []string{"recipe_cycle"}},
	{"agentapi.put_ruleset_us", "us", []string{"recipe_cycle"}},
	{"agentapi.flush_us", "us", []string{"recipe_cycle"}},
	{"orchestrator.control_calls_op", "count", []string{"recipe_cycle"}},
	{"orchestrator.reconcile_fakes100_ms", "ms", []string{"recipe_cycle"}},
	{"checker.select_calls_op", "count", []string{"recipe_cycle"}},
	{"checker.records_read_op", "count", []string{"recipe_cycle"}},

	{"registry.renew_ns", "ns", []string{"fleet_soak"}},
	{"registry.instances_ns", "ns", []string{"fleet_soak"}},
	{"registry.watch_wake_us", "us", []string{"fleet_soak"}},

	{"metrics.expose_us", "us", []string{"fleet_soak"}},
	{"metrics.parse_us", "us", []string{"fleet_soak"}},
	{"telemetry.scrape_once_ms", "ms", []string{"fleet_soak"}},
	{"telemetry.quantile_us", "us", []string{"fleet_soak"}},
	{"tracing.assemble_ms_10k", "ms", []string{"fleet_soak"}},

	{"microservice.handler_us", "us", []string{"hop_small", "hop_faulted", "fleet_soak", "l7_bulk"}},
	{"bench.client_self_us", "us", []string{"hop_small", "fleet_soak"}},
	{"bench.sched_late_p99_us", "us", []string{"fleet_soak"}},
	{"bench.trace_overhead_ratio", "ratio", everyWl},
	{"bench.span_coverage_ratio", "ratio", []string{"hop_small", "hop_faulted", "log_cycle", "recipe_cycle"}},
}

// metric is one reported value with its unit, as the result line and
// the result files carry it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
