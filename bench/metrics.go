package main

import "strings"

// perLayer lists every per-layer metric of the traced run. A workload
// that does not exercise a layer reports 0 for that layer's metrics: the
// prediction "nothing on this workload" is then a number, not a gap.
var perLayer = buildPerLayer(
	// object
	"object.load_us", "object.new_us", "object.invoke_dispatch_us", "object.persist_us", "object.persist_signal_us",
	// detector
	"detector.propagate_us", "detector.flush_us", "detector.signals", "detector.detections",
	"detector.fastpath_hit_ratio", "detector.flush_fanout", "detector.nodes_live",
	"detector.pending_occurrences", "detector.masked_drops",
	// sched
	"sched.task_wait_us", "sched.task_run_us", "sched.tasks", "sched.steals",
	// rules
	"rules.dispatch_us", "rules.condition_us", "rules.action_us", "rules.fires_immediate",
	"rules.fires_deferred", "rules.retries", "rules.sheds", "rules.errors", "rules.firings_per_event",
	// query
	"query.exists_us", "query.probe_us", "query.range_us", "query.aggregate_us", "query.index_probes",
	"query.range_scans", "query.extent_scans", "query.reverify_drop_ratio", "query.index_entries_written",
	"query.read_p50_us", "query.write_p50_us",
	// txn
	"txn.begin_us", "txn.commit_us", "txn.commit_self_us", "txn.abort_us", "txn.commits", "txn.aborts", "txn.sub_begins",
	// lockmgr
	"lockmgr.wait_us", "lockmgr.grants", "lockmgr.waits", "lockmgr.deadlocks", "lockmgr.bypasses",
	// storage
	"storage.force_wait_us", "storage.group_commit_batch", "storage.fsyncs_per_txn", "storage.wal_bytes_per_txn",
	"storage.buffer_hit_ratio", "storage.page_reads", "storage.page_writes", "storage.snapshot_reads",
	"storage.version_chain_len", "storage.gc_reclaimed", "storage.device_fsync_us",
	// repl
	"repl.ship_bytes_per_txn", "repl.ship_records", "repl.apply_records", "repl.lag_records_max",
	"repl.sheds", "repl.visible_poll_us",
	// ged
	"ged.contribute_ack_us", "ged.contribute_send_us", "ged.flush_wait_us", "ged.on_global_us",
	"ged.log_append_us", "ged.send_queue_wait_us", "ged.dispatch_us", "ged.occurrences_per_batch",
	"ged.notify_shed", "ged.generator_late_us", "ged.notify_p99_us",
	// snoop
	"snoop.load_rules_s", "snoop.rules_per_node",
	// the traced run as a whole
	"traced_txn_per_s", "traced_txn_p50_us", "traced_txn_p99_us", "trace_overhead_pct", "unattributed_us", "attributed_share",
	"failed_share",
	// the benchmark's own writer mutex (README.md, "What the workloads step
	// around"): the wait for it, and what fails in a phase without it
	"bench.section_wait_us", "bench.unserialized_failed_share",
)

// higherIsBetter names the per-layer metrics where a larger value is the
// better one; every other per-layer metric is a cost or a count of work.
var higherIsBetter = map[string]bool{
	"detector.fastpath_hit_ratio": true,
	"storage.buffer_hit_ratio":    true,
	"storage.group_commit_batch":  true,
	"ged.occurrences_per_batch":   true,
	"snoop.rules_per_node":        true,
	"traced_txn_per_s":            true,
	"attributed_share":            true,
}

func buildPerLayer(names ...string) []metricDef {
	out := make([]metricDef, 0, len(names))
	for _, n := range names {
		better := "lower"
		if higherIsBetter[n] {
			better = "higher"
		}
		out = append(out, metricDef{name: n, unit: layerUnit(n), better: better})
	}
	return out
}

// layerUnit derives a per-layer metric's unit from its name.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "_per_s"):
		return "1/s"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_pct"):
		return "%"
	case strings.HasSuffix(name, "_ratio"), strings.HasSuffix(name, "_share"):
		return "ratio"
	default:
		return "count"
	}
}
