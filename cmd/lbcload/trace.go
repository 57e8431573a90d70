package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
)

// The traced run (--trace 1) yields the per-layer numbers. It spends the
// measured time on three windows of a third each, every one on a fresh
// cluster: plain, with the bench.* spans and the 10 ms samplers on, and
// with the program's own trace ring on. Counters and spans come from
// the second; the other two only price the spans and the ring. The
// crash-cycle drill and the idle probes follow. No reported time
// depends on a span emitted inside the program.

// spanTotals sums span durations by kind and counts spans.
type spanTotals struct {
	ns    [numSpanKinds]int64
	count [numSpanKinds]int64
}

func totalSpans(clients []*client) spanTotals {
	var t spanTotals
	for _, c := range clients {
		for _, s := range c.spans {
			t.ns[s.kind] += s.end - s.start
			t.count[s.kind]++
		}
	}
	return t
}

// perTxUS is the mean time per transaction spent in spans of a kind.
func (t spanTotals) perTxUS(k spanKind) float64 {
	return ratio(float64(t.ns[k])/1e3, float64(t.count[spanTx]))
}

// coverShare is the share of bench.tx time its child spans cover; the
// rest is the transaction span's self time.
func (t spanTotals) coverShare() float64 {
	var children int64
	for k := spanBegin; k < numSpanKinds; k++ {
		children += t.ns[k]
	}
	return ratio(float64(children), float64(t.ns[spanTx]))
}

// writeSpans writes the spans as JSONL: name, start, end, the parent
// span's name, and the (client, tx) pair that spans of one transaction
// share.
func writeSpans(path string, clients []*client) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, c := range clients {
		for _, s := range c.spans {
			parent := spanNames[spanTx]
			if s.kind == spanTx {
				parent = ""
			}
			if err := enc.Encode(struct {
				Name    string `json:"name"`
				Start   int64  `json:"start_ns"`
				End     int64  `json:"end_ns"`
				Parent  string `json:"parent"`
				Client  uint8  `json:"client"`
				TxIndex uint32 `json:"tx"`
			}{spanNames[s.kind], s.start, s.end, parent, s.client, s.tx}); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runTrace is the traced run: three windows of a third of --seconds,
// the crash-cycle drill with its last logs captured, the idle probes.
func runTrace(cfg config, spansPath string) *report {
	rep := &report{cfg: cfg, trace: true, metrics: map[string]float64{}}
	m := rep.metrics
	third := cfg
	third.seconds = cfg.seconds / 3

	plain, _, ok := rep.window(third, false, nil)
	if !ok {
		return rep
	}
	ringCfg := third
	ringCfg.ring = true
	ring, _, ok := rep.window(ringCfg, false, nil)
	if !ok {
		return rep
	}
	tracedCfg := third
	tracedCfg.traced = true
	var spans spanTotals
	traced, _, ok := rep.window(tracedCfg, true, func(r *rig) {
		spans = totalSpans(r.clients)
		if spansPath != "" {
			if err := writeSpans(spansPath, r.clients); err != nil {
				rep.problem("write spans: %v", err)
			}
		}
	})
	if !ok {
		return rep
	}

	counterMetrics(m, traced)
	m["bench.begin_us"] = spans.perTxUS(spanBegin)
	m["bench.acquire_us"] = spans.perTxUS(spanAcquire)
	m["bench.write_us"] = spans.perTxUS(spanWrite)
	m["bench.commit_us"] = spans.perTxUS(spanCommit)
	m["bench.verify_us"] = spans.perTxUS(spanVerify)
	m["bench.tx_cover_share"] = spans.coverShare()
	if c := spans.coverShare(); c < 0.95 {
		rep.problem("bench.tx_cover_share = %.3f, the spans must cover 0.95 of the transaction", c)
	}
	m["parapply.queue_depth_p50"] = float64(percentile(traced.depth, 0.50))
	m["parapply.queue_depth_p99"] = float64(percentile(traced.depth, 0.99))
	rate := func(w windowStats) float64 { return ratio(float64(w.committed()), w.elapsed.Seconds()) }
	m["bench.span_overhead_share"] = 1 - ratio(rate(traced), rate(plain))
	m["obs.trace_overhead_share"] = 1 - ratio(rate(ring), rate(plain))

	// The paper's five bars beside the spans: printed, not asserted.
	var phases float64
	for _, p := range []string{"detect", "collect", "disk", "net", "apply"} {
		phases += m["phase."+p+"_us_per_tx"]
	}
	if tx := ratio(float64(spans.ns[spanTx])/1e3, float64(spans.count[spanTx])); tx > 0 {
		if gap := (phases - tx) / tx; gap > 0.10 || gap < -0.10 {
			rep.notes = append(rep.notes, fmt.Sprintf("phase sum %.1f us/tx vs bench.tx %.1f us/tx: gap %+.0f %%", phases, tx, 100*gap))
		}
	}

	if cfg.workload == "bulk" {
		// The discrimination check needs private's wire bytes beside
		// bulk's; counters repeat closely enough for a short window.
		ref := third
		ref.workload, ref.seconds, ref.traced = "private", 0.5, false
		if w, _, ok := rep.window(ref, false, nil); ok {
			m["private.wire_bytes_per_tx"] = ratio(float64(w.nodes.c[ctrBytesSent]), float64(w.committed()))
		}
	}

	captured := rep.drill(3, true)

	probeLocal(rep, third)
	probeStore(rep, int(m["wal.record_bytes_per_tx"]))
	probeNet(rep)
	probePingPong(rep)
	probeLogs(rep, captured)

	acq, commit := usec(percentile(traced.acq, 0.50)), usec(percentile(traced.commit, 0.50))
	m["coherency.commit_unexplained_share"] = 1 - ratio(m["rvm.commit_noflush_us"]+m["store.append_sync_us_p50"], commit)
	m["coherency.acquire_unexplained_share"] = 1 - ratio(m["lockmgr.token_pingpong_us"], acq)
	rep.check(traced, m)
	rep.finish()
	return rep
}
