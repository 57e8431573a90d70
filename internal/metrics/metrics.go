// Package metrics provides the phase-cost accounting used throughout the
// log-based coherency system. The paper's figures decompose every
// experiment into the same five phases — detect updates, collect updates,
// disk I/O, network I/O, and apply updates — so the instrumentation is
// shared by the RVM core, the coherency engines, and the benchmark
// harness.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Phase identifies one segment of a stacked cost bar in Figures 1-3 and 8.
type Phase int

// The five cost phases from the paper's evaluation.
const (
	PhaseDetect  Phase = iota // detecting updates (set_range calls or faults)
	PhaseCollect              // collecting updates at commit (gather + encode)
	PhaseDiskIO               // writing the log tail to durable storage
	PhaseNetIO                // transmitting coherency data to peers
	PhaseApply                // applying received updates at a peer
	numPhases
)

// String returns the label used in the paper's figure legends.
func (p Phase) String() string {
	switch p {
	case PhaseDetect:
		return "Detect Updates"
	case PhaseCollect:
		return "Collect Updates"
	case PhaseDiskIO:
		return "Disk I/O"
	case PhaseNetIO:
		return "Network I/O"
	case PhaseApply:
		return "Apply Updates"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// Phases lists all phases in figure-stack order (bottom to top).
func Phases() []Phase {
	return []Phase{PhaseDetect, PhaseCollect, PhaseDiskIO, PhaseNetIO, PhaseApply}
}

// Stats accumulates per-phase durations, event counters, and sample
// histograms. All methods are safe for concurrent use; receiver
// goroutines add apply time while the mutator thread adds
// detect/collect time.
//
// The counters named by the Ctr* constants (and the histograms named
// by the Hist* constants) live in fixed tables indexed by a
// package-init lookup map, so the hot commit path increments a plain
// atomic without touching sync.Map or allocating. Unknown names fall
// back to a sync.Map, preserving the open namespace for tests and
// experiments.
type Stats struct {
	phaseNS  [numPhases]atomic.Int64
	fixed    [maxFixedCounters]atomic.Int64
	counters sync.Map // string -> *atomic.Int64 (names not in fixedIdx)

	fixedHists [maxFixedHists]Histogram
	hists      sync.Map // string -> *Histogram (names not in fixedHistIdx)
}

// NewStats returns an empty statistics accumulator.
func NewStats() *Stats { return &Stats{} }

// AddPhase accrues d into phase p.
func (s *Stats) AddPhase(p Phase, d time.Duration) {
	s.phaseNS[p].Add(int64(d))
}

// Phase returns the accumulated time in phase p.
func (s *Stats) Phase(p Phase) time.Duration {
	return time.Duration(s.phaseNS[p].Load())
}

// Total returns the sum across all phases.
func (s *Stats) Total() time.Duration {
	var t time.Duration
	for p := Phase(0); p < numPhases; p++ {
		t += s.Phase(p)
	}
	return t
}

// Add increments the named counter by delta. Known names (the Ctr*
// constants) hit a fixed atomic table: no allocation, no sync.Map.
func (s *Stats) Add(name string, delta int64) {
	if idx, ok := fixedIdx[name]; ok {
		s.fixed[idx].Add(delta)
		return
	}
	if v, ok := s.counters.Load(name); ok {
		v.(*atomic.Int64).Add(delta)
		return
	}
	v, _ := s.counters.LoadOrStore(name, new(atomic.Int64))
	v.(*atomic.Int64).Add(delta)
}

// Counter returns the value of the named counter (0 if never written).
func (s *Stats) Counter(name string) int64 {
	if idx, ok := fixedIdx[name]; ok {
		return s.fixed[idx].Load()
	}
	v, ok := s.counters.Load(name)
	if !ok {
		return 0
	}
	return v.(*atomic.Int64).Load()
}

// Counters returns a snapshot of all counters. Fixed-table counters
// appear only once written, matching the dynamic table's behavior.
func (s *Stats) Counters() map[string]int64 {
	out := map[string]int64{}
	for name, idx := range fixedIdx {
		if v := s.fixed[idx].Load(); v != 0 {
			out[name] = v
		}
	}
	s.counters.Range(func(k, v any) bool {
		out[k.(string)] = v.(*atomic.Int64).Load()
		return true
	})
	return out
}

// Observe records one sample into the named histogram. Known names
// (the Hist* constants) hit a fixed table; unknown names allocate a
// histogram on first use.
func (s *Stats) Observe(name string, v int64) {
	if idx, ok := fixedHistIdx[name]; ok {
		s.fixedHists[idx].Observe(v)
		return
	}
	if h, ok := s.hists.Load(name); ok {
		h.(*Histogram).Observe(v)
		return
	}
	h, _ := s.hists.LoadOrStore(name, &Histogram{})
	h.(*Histogram).Observe(v)
}

// Hist returns the named histogram, or nil if the name is unknown and
// has never been observed. The returned histogram is live.
func (s *Stats) Hist(name string) *Histogram {
	if idx, ok := fixedHistIdx[name]; ok {
		return &s.fixedHists[idx]
	}
	if h, ok := s.hists.Load(name); ok {
		return h.(*Histogram)
	}
	return nil
}

// Hists returns a snapshot of every histogram with at least one sample.
func (s *Stats) Hists() map[string]HistSnapshot {
	out := map[string]HistSnapshot{}
	for name, idx := range fixedHistIdx {
		if s.fixedHists[idx].Count() > 0 {
			out[name] = s.fixedHists[idx].Snapshot()
		}
	}
	s.hists.Range(func(k, v any) bool {
		h := v.(*Histogram)
		if h.Count() > 0 {
			out[k.(string)] = h.Snapshot()
		}
		return true
	})
	return out
}

// Reset zeroes all phases, counters, and histograms.
func (s *Stats) Reset() {
	for p := Phase(0); p < numPhases; p++ {
		s.phaseNS[p].Store(0)
	}
	for i := range s.fixed {
		s.fixed[i].Store(0)
	}
	s.counters.Range(func(k, v any) bool {
		v.(*atomic.Int64).Store(0)
		return true
	})
	for i := range s.fixedHists {
		s.fixedHists[i].Reset()
	}
	s.hists.Range(func(k, v any) bool {
		v.(*Histogram).Reset()
		return true
	})
}

// Merge adds every phase, counter, and histogram of o into s.
func (s *Stats) Merge(o *Stats) {
	for p := Phase(0); p < numPhases; p++ {
		s.phaseNS[p].Add(o.phaseNS[p].Load())
	}
	for name, idx := range fixedIdx {
		if v := o.fixed[idx].Load(); v != 0 {
			s.Add(name, v)
		}
	}
	o.counters.Range(func(k, v any) bool {
		s.Add(k.(string), v.(*atomic.Int64).Load())
		return true
	})
	for i := range s.fixedHists {
		s.fixedHists[i].Merge(&o.fixedHists[i])
	}
	o.hists.Range(func(k, v any) bool {
		name := k.(string)
		if h, ok := s.hists.Load(name); ok {
			h.(*Histogram).Merge(v.(*Histogram))
			return true
		}
		h, _ := s.hists.LoadOrStore(name, &Histogram{})
		h.(*Histogram).Merge(v.(*Histogram))
		return true
	})
}

// Snapshot returns an immutable copy of the stats, suitable for
// reporting after an experiment completes.
func (s *Stats) Snapshot() Snapshot {
	snap := Snapshot{Counters: s.Counters(), Hists: s.Hists()}
	for p := Phase(0); p < numPhases; p++ {
		snap.Phases[p] = s.Phase(p)
	}
	return snap
}

// Snapshot is a point-in-time copy of a Stats accumulator.
type Snapshot struct {
	Phases   [numPhases]time.Duration
	Counters map[string]int64
	Hists    map[string]HistSnapshot
}

// Phase returns the accumulated time in phase p.
func (sn Snapshot) Phase(p Phase) time.Duration { return sn.Phases[p] }

// Total returns the sum across all phases.
func (sn Snapshot) Total() time.Duration {
	var t time.Duration
	for _, d := range sn.Phases {
		t += d
	}
	return t
}

// Sub returns sn - o phase-wise and counter-wise (counters floor at
// whatever arithmetic yields; no clamping).
func (sn Snapshot) Sub(o Snapshot) Snapshot {
	out := Snapshot{Counters: map[string]int64{}}
	for p := range sn.Phases {
		out.Phases[p] = sn.Phases[p] - o.Phases[p]
	}
	for k, v := range sn.Counters {
		out.Counters[k] = v - o.Counters[k]
	}
	for k, v := range o.Counters {
		if _, ok := sn.Counters[k]; !ok {
			out.Counters[k] = -v
		}
	}
	return out
}

// Format renders the snapshot as an aligned table: phases first in stack
// order, then counters alphabetically.
func (sn Snapshot) Format() string {
	var b strings.Builder
	for _, p := range Phases() {
		if sn.Phases[p] != 0 {
			fmt.Fprintf(&b, "  %-16s %12.3f ms\n", p, float64(sn.Phases[p])/1e6)
		}
	}
	keys := make([]string, 0, len(sn.Counters))
	for k := range sn.Counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "  %-16s %12d\n", k, sn.Counters[k])
	}
	hk := make([]string, 0, len(sn.Hists))
	for k := range sn.Hists {
		hk = append(hk, k)
	}
	sort.Strings(hk)
	for _, k := range hk {
		h := sn.Hists[k]
		fmt.Fprintf(&b, "  %-16s n=%d p50=%d p90=%d p99=%d\n",
			k, h.Count, h.Quantile(0.50), h.Quantile(0.90), h.Quantile(0.99))
	}
	return b.String()
}

// Timer measures one phase interval. It is intentionally allocation-free
// so it can wrap every set_range call without perturbing Figure 5/6.
type Timer struct {
	stats *Stats
	phase Phase
	start time.Time
}

// StartTimer begins timing phase p against stats s.
func StartTimer(s *Stats, p Phase) Timer {
	return Timer{stats: s, phase: p, start: time.Now()}
}

// Stop accrues the elapsed time and returns it.
func (t Timer) Stop() time.Duration {
	d := time.Since(t.start)
	t.stats.AddPhase(t.phase, d)
	return d
}

// Common counter names shared across packages. Keeping them in one place
// prevents silent divergence between the engines and the harness.
const (
	CtrSetRangeCalls  = "set_range_calls"  // detect events (Log engine)
	CtrRangesLogged   = "ranges_logged"    // distinct ranges at commit
	CtrBytesLogged    = "bytes_logged"     // unique new-value bytes
	CtrBytesSent      = "bytes_sent"       // coherency bytes on the wire
	CtrMsgsSent       = "msgs_sent"        // coherency messages
	CtrPagesTouched   = "pages_touched"    // pages with >=1 modified byte
	CtrPageFaults     = "page_faults"      // simulated write faults (Page/CpyCmp)
	CtrPageCopies     = "page_copies"      // twin copies (CpyCmp)
	CtrPageCompares   = "page_compares"    // twin compares (CpyCmp)
	CtrPagesSent      = "pages_sent"       // whole pages transmitted (Page)
	CtrBytesApplied   = "bytes_applied"    // bytes written at receivers
	CtrRecordsApplied = "records_applied"  // range records applied at receivers
	CtrTxCommitted    = "tx_committed"     // committed transactions
	CtrTxAborted      = "tx_aborted"       // aborted transactions
	CtrLockAcquires   = "lock_acquires"    // distributed lock acquisitions
	CtrLockRemote     = "lock_remote_msgs" // lock protocol messages sent
	CtrLogFlushes     = "log_flushes"      // durable log forces

	// Group-commit pipeline (wal.GroupWriter / coherency batcher).
	CtrGroupBatches      = "group_batches"       // log batches written
	CtrGroupBatchRecords = "group_batch_records" // records across all batches
	CtrGroupBatchBytes   = "group_batch_bytes"   // encoded bytes across all batches
	CtrGroupSyncs        = "group_syncs"         // shared durable forces

	// Coherency / lock-manager event counters. These were ad-hoc string
	// literals before the observability layer; naming them here keeps
	// the engines and the export registry in agreement.
	CtrLockWaitNS        = "lock_wait_ns"       // cumulative acquire wait
	CtrSendErrors        = "send_errors"        // failed coherency sends
	CtrBatchFrames       = "batch_frames"       // MsgUpdateBatch frames sent
	CtrBatchRecords      = "batch_records"      // records across all frames
	CtrRecordsStale      = "records_stale"      // duplicate records discarded
	CtrApplyErrors       = "apply_errors"       // records that failed to apply
	CtrDecodeErrors      = "decode_errors"      // undecodable wire payloads
	CtrCompressFallbacks = "compress_fallbacks" // ErrTooLarge -> standard encoding
	CtrCatchupRecords    = "catchup_records"    // records replayed at restart
	CtrTokenPassRetries  = "token_pass_retries" // token passes re-sent after a failure

	// Apply pipeline (parapply engine). CtrApplyBackpressure is never
	// incremented — records go straight to the scheduler, there is no
	// queue to fill — and stays defined for cmd/lbcload, which names it.
	CtrApplyBackpressure = "apply_backpressure"
	CtrApplyWorkerBusyNS = "apply_worker_busy_ns" // cumulative worker install time

	// Membership / live failure handling (internal/membership).
	CtrTokenSendRetries    = "lock_token_send_retries"    // token-pass retries under capped backoff
	CtrTokenSendsAbandoned = "lock_token_sends_abandoned" // token passes given up (peer evicted / cap hit)
	CtrStaleEpochFrames    = "stale_epoch_frames"         // update frames dropped for carrying an old epoch
	CtrEvictedSenderFrames = "evicted_sender_frames"      // frames dropped because the sender is evicted
	CtrSuspicions          = "member_suspicions"          // peers newly suspected by the failure detector
	CtrEvictions           = "member_evictions"           // peers evicted (locally confirmed or adopted)
	CtrRejoins             = "member_rejoins"             // evicted peers readmitted after catch-up
	CtrReclaimedTokens     = "lock_tokens_reclaimed"      // lock tokens re-minted after an eviction

	// Checkpointing (rvm incremental sweeps + the coordinated protocol).
	CtrCkptSizeErrors = "checkpoint_size_errors" // log.Size failures swallowed by NeedsCheckpoint
	CtrCkptSweepPages = "checkpoint_sweep_pages" // pages copied to the store by fuzzy sweeps
	CtrCkptDirtyPages = "checkpoint_dirty_pages" // pages re-copied after racing commits dirtied them
	CtrCkptSweepBytes = "ckpt_sweep_bytes"       // bytes copied under segment locks by fuzzy sweeps
	CtrCkptQuiesceNS  = "ckpt_quiesce_ns"        // cumulative time a coordinator held every lock at once
	CtrCkptMarkers    = "checkpoint_markers"     // durable checkpoint markers appended
	CtrLogTrims       = "log_trims"              // online log head trims completed
	CtrCkptErrors     = "checkpoint_errors"      // checkpoint steps that failed (peer or coordinator)
	CtrPullRescans    = "pull_rescans"           // lazy pulls restarted from the head after a trim

	// Sharded coherency plane: lock-home migration and interest routing.
	CtrLockMigrations        = "lock_home_migrations"         // fenced home handoffs completed (old-home side)
	CtrLockMigrationsAborted = "lock_home_migrations_aborted" // handoffs abandoned (refused, or target evicted)
	CtrLockMigrationRetries  = "lock_home_migration_retries"  // handoff offers re-sent awaiting a delayed ack
	CtrInterestRegs          = "interest_registrations"       // peer interest (un)registrations received
	CtrUpdateFramesRecv      = "update_frames_recv"           // update/update-batch frames received

	// Wire efficiency: payload compression and per-peer flow control.
	// CtrBytesSent counts actual post-compression wire bytes; the raw
	// counter is what the same traffic would have cost uncompressed, so
	// bytes_sent_raw / bytes_sent is the live compression ratio.
	CtrBytesSentRaw     = "bytes_sent_raw"     // pre-compression update payload bytes
	CtrCompressedFrames = "compressed_frames"  // MsgUpdateBatchC frames shipped
	CtrCompressSkips    = "compress_skips"     // batches sent plain (small or incompressible)
	CtrFramesDeflated   = "frames_deflated"    // DEFLATE runs over a batch frame (a shared frame counts once)
	CtrSendStalls       = "send_window_stalls" // enqueues that blocked on a full send window
	CtrSlowPeerDrops    = "slow_peer_drops"    // queued records dropped to unwedge a stalled peer

	// Disk-fault tolerance and transport retry exhaustion.
	CtrLogCorruption    = "log_corruption_detected" // interior log corruption found by a scan
	CtrRepairRecords    = "repair_records_pulled"   // committed records re-fetched past damage
	CtrRetriesExhausted = "retries_exhausted"       // send/call attempts that ran out of retries
)

// Histogram names pre-registered into the fixed table. Values are
// nanoseconds unless the name says otherwise.
const (
	HistFsyncNS      = "fsync_ns"          // durable-force latency per log sync
	HistBatchRecords = "batch_occupancy"   // records per group-commit batch
	HistLockWaitNS   = "lock_wait_hist_ns" // per-acquire lock wait
	HistApplyNS      = "apply_ns"          // per-record install latency

	// Storage-service latency (internal/store client + server).
	HistStoreReadNS       = "store_read_ns"        // client-observed read op latency
	HistStoreWriteNS      = "store_write_ns"       // client-observed write op latency
	HistStoreDialNS       = "store_dial_ns"        // client dial latency (incl. failover walks)
	HistStoreServeReadNS  = "store_serve_read_ns"  // server-side read op handling
	HistStoreServeWriteNS = "store_serve_write_ns" // server-side write op handling

	// Per-peer flow control (coherency batcher).
	HistSendStallNS = "send_stall_ns" // time an enqueue spent blocked on a peer's window
)

// DecodeErrorsFrom names the per-sender decode-error counter for node.
// The names are dynamic (one per misbehaving peer, normally zero), so
// they live in the sync.Map fallback rather than the fixed table.
func DecodeErrorsFrom(node uint32) string {
	return fmt.Sprintf("decode_errors_from_%d", node)
}

// BytesSentTo names the per-peer wire-byte counter for node. Dynamic
// (one per peer actually sent to), so it lives in the sync.Map
// fallback; the batcher pays the sprintf once per frame, not per record.
func BytesSentTo(node uint32) string {
	return fmt.Sprintf("bytes_sent_to_%d", node)
}

// Fixed-table sizing. The lookup maps are built once at init; Add and
// Observe consult them with a read-only map access (no allocation).
const (
	maxFixedCounters = 80
	maxFixedHists    = 16
)

var fixedIdx = buildIndex([]string{
	CtrSetRangeCalls, CtrRangesLogged, CtrBytesLogged, CtrBytesSent,
	CtrMsgsSent, CtrPagesTouched, CtrPageFaults, CtrPageCopies,
	CtrPageCompares, CtrPagesSent, CtrBytesApplied, CtrRecordsApplied,
	CtrTxCommitted, CtrTxAborted, CtrLockAcquires, CtrLockRemote,
	CtrLogFlushes,
	CtrGroupBatches, CtrGroupBatchRecords, CtrGroupBatchBytes, CtrGroupSyncs,
	CtrLockWaitNS, CtrSendErrors, CtrBatchFrames, CtrBatchRecords,
	CtrRecordsStale, CtrApplyErrors, CtrDecodeErrors, CtrCompressFallbacks,
	CtrCatchupRecords, CtrTokenPassRetries,
	CtrApplyBackpressure, CtrApplyWorkerBusyNS,
	CtrTokenSendRetries, CtrTokenSendsAbandoned, CtrStaleEpochFrames,
	CtrEvictedSenderFrames, CtrSuspicions, CtrEvictions, CtrRejoins,
	CtrReclaimedTokens,
	CtrCkptSizeErrors, CtrCkptSweepPages, CtrCkptDirtyPages,
	CtrCkptSweepBytes, CtrCkptQuiesceNS,
	CtrCkptMarkers, CtrLogTrims, CtrCkptErrors, CtrPullRescans,
	CtrLockMigrations, CtrLockMigrationsAborted, CtrLockMigrationRetries,
	CtrInterestRegs, CtrUpdateFramesRecv,
	CtrBytesSentRaw, CtrCompressedFrames, CtrCompressSkips, CtrFramesDeflated,
	CtrSendStalls, CtrSlowPeerDrops,
	CtrLogCorruption, CtrRepairRecords, CtrRetriesExhausted,
}, maxFixedCounters)

var fixedHistIdx = buildIndex([]string{
	HistFsyncNS, HistBatchRecords, HistLockWaitNS, HistApplyNS,
	HistStoreReadNS, HistStoreWriteNS, HistStoreDialNS,
	HistStoreServeReadNS, HistStoreServeWriteNS,
	HistSendStallNS,
}, maxFixedHists)

func buildIndex(names []string, max int) map[string]int {
	if len(names) > max {
		panic(fmt.Sprintf("metrics: %d fixed names exceed table size %d", len(names), max))
	}
	m := make(map[string]int, len(names))
	for i, n := range names {
		if _, dup := m[n]; dup {
			panic("metrics: duplicate fixed name " + n)
		}
		m[n] = i
	}
	return m
}
