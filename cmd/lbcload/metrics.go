package main

import (
	"encoding/json"
	"strings"
)

// The names below are the contract: every later issue quotes them, and
// BENCHMARK.json at the repository root is this file's tables printed
// by `lbcload -manifest` (a test keeps the two equal).

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

const (
	lower  = "lower"
	higher = "higher"
)

const runSeconds = 15

var workloadDefs = []workloadDef{
	{"private", "one-writer set-up: all clients on node 0, disjoint segments; rvm, wal, store, batcher and parapply do the work, lockmgr none; the only place group commit can form batches"},
	{"shared", "clients on different nodes, 64 hot segments, half readers: nearly every acquire is remote, so lockmgr token passing, netproto latency and the apply-before-grant interlock dominate"},
	{"bulk", "8 locks and 256 x 48 B ranges per transaction (OO7 T2-B): the private layers paid per byte - rangetree, headers, DEFLATE, wire, apply bandwidth - not per commit"},
	{"paced", "open loop at a fixed 4000 tx/s, mixed, with three checkpoints in the window: latency from the due time at a rate the user chose, checkpoint stalls in the tail"},
	{"crash", "cycles of load, checkpoint, tail, crash, load on survivors, restart, first commit: rvm recovery, wal scan, store log reads and catch-up do the work; acknowledged means durable"},
}

// End-to-end metrics, reported by every workload. Every workload ends
// with crash cycles (crash consists of them), so recover_ms and
// first_commit_ms exist everywhere; in paced, tx latency counts from
// the due time. A bound is the share of the parent's median by which a
// metric may worsen. On the 2-core reference host the inter-quartile
// spread of ten runs is 3 to 17 % of the median for every timing
// (README.md, "Repeatability"): the host, not the window length, sets
// it, so every timing takes the widest bound the contract allows rather
// than one the benchmark cannot resolve.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"tx_per_s", "1/s", higher, 0.25},
	{"tx_p50_us", "us", lower, 0.25},
	{"tx_p99_us", "us", lower, 0.25},
	{"acquire_p99_us", "us", lower, 0.25},
	{"commit_p50_us", "us", lower, 0.25},
	{"commit_p99_us", "us", lower, 0.25},
	{"log_bytes_per_user_byte", "ratio", lower, 0.02},
	{"recover_ms", "ms", lower, 0.25},
	{"first_commit_ms", "ms", lower, 0.25},
	{"peak_rss_mb", "MiB", lower, 0.25},
}

// Per-layer metrics, reported by the traced run (--trace 1). The layer
// is the prefix: a module of the repository, bench for the generator's
// own spans, phase for the paper's five bars.
var perLayer = []metricDef{
	{"bench.begin_us", "us", lower, 0},
	{"bench.acquire_us", "us", lower, 0},
	{"bench.write_us", "us", lower, 0},
	{"bench.commit_us", "us", lower, 0},
	{"bench.verify_us", "us", lower, 0},
	{"bench.tx_cover_share", "ratio", higher, 0},
	{"rvm.set_range_ns", "ns", lower, 0},
	{"rvm.commit_noflush_us", "us", lower, 0},
	{"rvm.ranges_per_tx", "count", lower, 0},
	{"wal.record_bytes_per_tx", "B", lower, 0},
	{"wal.header_bytes_per_range", "B", lower, 0},
	{"wal.syncs_per_tx", "ratio", lower, 0},
	{"wal.batch_occupancy", "count", higher, 0},
	{"wal.scan_mb_per_s", "MB/s", higher, 0},
	{"wal.compression_ratio", "ratio", higher, 0},
	{"store.append_sync_us_p50", "us", lower, 0},
	{"store.append_sync_us_p99", "us", lower, 0},
	{"store.read_log_mb_per_s", "MB/s", higher, 0},
	{"store.ops_per_tx", "count", lower, 0},
	{"netproto.rtt_us_p50", "us", lower, 0},
	{"netproto.stream_mb_per_s", "MB/s", higher, 0},
	{"netproto.wire_bytes_per_tx", "B", lower, 0},
	{"netproto.msgs_per_tx", "count", lower, 0},
	{"coherency.frames_per_tx", "count", lower, 0},
	{"coherency.records_per_frame", "count", higher, 0},
	{"coherency.send_window_stalls", "count", lower, 0},
	{"coherency.records_stale", "count", lower, 0},
	{"coherency.commit_unexplained_share", "ratio", lower, 0},
	{"lockmgr.local_acquire_ns", "ns", lower, 0},
	{"lockmgr.token_pingpong_us", "us", lower, 0},
	{"lockmgr.remote_msgs_per_acquire", "count", lower, 0},
	{"coherency.acquire_unexplained_share", "ratio", lower, 0},
	{"parapply.queue_depth_p50", "count", lower, 0},
	{"parapply.queue_depth_p99", "count", lower, 0},
	{"parapply.records_applied_per_tx", "count", lower, 0},
	{"parapply.apply_backpressure", "count", lower, 0},
	{"parapply.worker_busy_share", "ratio", lower, 0},
	{"coherency.drain_ms", "ms", lower, 0},
	{"phase.detect_us_per_tx", "us", lower, 0},
	{"phase.collect_us_per_tx", "us", lower, 0},
	{"phase.disk_us_per_tx", "us", lower, 0},
	{"phase.net_us_per_tx", "us", lower, 0},
	{"phase.apply_us_per_tx", "us", lower, 0},
	{"coherency.checkpoint_ms_p50", "ms", lower, 0},
	{"coherency.checkpoint_count", "count", higher, 0},
	{"bench.tx_p99_during_ckpt_us", "us", lower, 0},
	{"coherency.crash_ms", "ms", lower, 0},
	{"coherency.catchup_records_per_restart", "count", lower, 0},
	{"coherency.log_bytes_at_restart", "B", lower, 0},
	{"rvm.recover_mb_per_s", "MB/s", higher, 0},
	{"merge.merge_mb_per_s", "MB/s", higher, 0},
	{"membership.evictions", "count", lower, 0},
	{"coherency.decode_errors", "count", lower, 0},
	{"coherency.apply_errors", "count", lower, 0},
	{"obs.trace_overhead_share", "ratio", lower, 0},
	{"bench.generator_late_p99_us", "us", lower, 0},
	{"bench.span_overhead_share", "ratio", lower, 0},
	{"bench.tx_p999_us", "us", lower, 0},
	// Demoted from the end-to-end list. The two shares are 0 on a healthy
	// run, and a relative bound on 0 decides nothing; failed_share is also
	// the result line's failed / attempted. acquire_p50_us sits between
	// two modes on shared (a token already here, about 1 us, or one to
	// fetch, hundreds): its spread there is wider than any bound.
	{"slo_miss_share", "ratio", lower, 0},
	{"failed_share", "ratio", lower, 0},
	{"acquire_p50_us", "us", lower, 0},
}

// manifest renders BENCHMARK.json.
func manifest() []byte {
	type layerDef struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	layers := make([]layerDef, len(perLayer))
	for i, d := range perLayer {
		layers[i] = layerDef{d.Name, d.Unit, d.Better}
	}
	var b strings.Builder
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	_ = enc.Encode(map[string]any{
		"command":     []string{"bash", "cmd/lbcload/run.sh"},
		"paths":       []string{"cmd/lbcload"},
		"run_seconds": runSeconds,
		"workloads":   workloadDefs,
		"end_to_end":  endToEnd,
		"per_layer":   layers,
	})
	return []byte(b.String())
}
