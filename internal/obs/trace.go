// Package obs is the observability layer for the log-based coherency
// system: per-transaction trace spans in a lock-free ring buffer, a
// registry exporting metrics.Stats as Prometheus text or JSON, and the
// /debug/lbc HTTP surface that serves both (plus pprof).
//
// The design constraint is the commit path: recording a span must be a
// handful of atomics and one small allocation, and a disabled tracer
// must cost approximately nothing (a nil check or one atomic load, no
// time.Now calls — the engines gate their clock reads on Enabled()).
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync/atomic"
)

// Span is one timed event on the commit path. Node/Tx identify the
// transaction the event belongs to (the committing node's ID and its
// commit sequence number); Self is the node that recorded the span, so
// peer-side spans (peer.apply) remain attributable to both sides.
type Span struct {
	Name  string `json:"name"`
	Self  uint32 `json:"self"`
	Node  uint32 `json:"node"`
	Tx    uint64 `json:"tx,omitempty"`
	Lock  uint32 `json:"lock,omitempty"`
	Peer  uint32 `json:"peer,omitempty"`
	Start int64  `json:"start_ns"`
	Dur   int64  `json:"dur_ns"`
	N     int64  `json:"n,omitempty"`
	// Worker is the 1-based apply-worker index for peer.apply spans
	// (which worker of the parallel pipeline installed the record).
	Worker int `json:"worker,omitempty"`
}

// Span names emitted by the engines, one per stage of the paper's
// commit pipeline. A committed transaction's trace contains (at least)
// tx, detect, collect, lock.acquire, disk.append, net.broadcast on the
// committing node and peer.apply on every peer.
const (
	SpanTx        = "tx"              // whole commit, begin -> durable
	SpanDetect    = "detect"          // set_range update detection
	SpanCollect   = "collect"         // gather + encode at commit
	SpanLock      = "lock.acquire"    // distributed lock acquisition
	SpanEnqueue   = "group.enqueue"   // waiting for batch admission
	SpanLead      = "group.lead"      // this committer wrote the batch
	SpanFollow    = "group.follow"    // waited on another leader's batch
	SpanAppend    = "disk.append"     // log append (+force) for this tx
	SpanSync      = "wal.sync"        // one shared durable force
	SpanBroadcast = "net.broadcast"   // coherency records handed to the wire
	SpanFrame     = "net.batch_frame" // one MsgUpdateBatch frame to one peer
	SpanApply     = "peer.apply"      // applying a received record
	SpanTokenSend = "lock.token_send" // lock token passed to a peer
	SpanTokenRecv = "lock.token_recv" // lock token received

	// Membership / failure-handling spans (internal/membership).
	SpanSuspect = "member.suspect"     // peer crossed the silence threshold
	SpanEvict   = "member.evict"       // eviction confirmed, epoch bumped
	SpanRejoin  = "member.rejoin"      // evicted peer readmitted
	SpanReclaim = "lock.token_reclaim" // lost token re-minted by its manager

	// Coordinated-checkpoint spans (coherency.CoordinatedCheckpoint),
	// emitted by the coordinator with Node = its id and Tx = the
	// checkpoint epoch. ckpt.quiesce is the window in which commits can
	// stall; ckpt.seal is the part of it spent with every lock held.
	SpanCkptBegin     = "ckpt.begin"      // Begin round: peers record their cuts; N = peers
	SpanCkptSweep     = "ckpt.sweep"      // fuzzy per-lock sweep until its writer is drained; N = bytes
	SpanCkptSweepLock = "ckpt.sweep.lock" // one segment: acquire + copy under Lock; N = bytes
	SpanCkptQuiesce   = "ckpt.quiesce"    // first quiesce acquire -> release; N = locks
	SpanCkptSeal      = "ckpt.seal"       // remainder + dirty pages, force, marker; N = pages re-swept
	SpanCkptSync      = "ckpt.sync"       // drain of server-log readers + Sync round; N = peers
	SpanCkptTrim      = "ckpt.trim"       // own head trim + Checkpoint round; N = logical cut
)

// Tracer records spans into a fixed-capacity ring buffer. Writers claim
// a slot with a fetch-add and publish the span through an atomic
// pointer, so concurrent committers never block each other and readers
// (Spans, WriteJSONL) see only fully-published spans. When the ring
// wraps, the oldest spans are overwritten.
//
// All methods are safe on a nil *Tracer (they no-op / report disabled),
// so the engines thread a possibly-nil tracer without guards.
type Tracer struct {
	self    uint32
	mask    uint64
	slots   []atomic.Pointer[Span]
	next    atomic.Uint64
	dropped atomic.Uint64 // spans overwritten after wrap
	enabled atomic.Bool
}

// NewTracer returns an enabled tracer for node self with capacity
// rounded up to a power of two (minimum 16).
func NewTracer(self uint32, capacity int) *Tracer {
	c := 16
	for c < capacity {
		c <<= 1
	}
	t := &Tracer{self: self, mask: uint64(c - 1), slots: make([]atomic.Pointer[Span], c)}
	t.enabled.Store(true)
	return t
}

// Enabled reports whether spans are being recorded. The engines call
// this before reading the clock, so a disabled (or nil) tracer keeps
// time.Now off the commit path.
func (t *Tracer) Enabled() bool {
	return t != nil && t.enabled.Load()
}

// SetEnabled turns recording on or off. No-op on nil.
func (t *Tracer) SetEnabled(on bool) {
	if t != nil {
		t.enabled.Store(on)
	}
}

// Self returns the node ID this tracer stamps into Span.Self.
func (t *Tracer) Self() uint32 {
	if t == nil {
		return 0
	}
	return t.self
}

// Emit records s, stamping Self. Safe for concurrent use; no-op when
// disabled or nil.
func (t *Tracer) Emit(s Span) {
	if !t.Enabled() {
		return
	}
	s.Self = t.self
	idx := t.next.Add(1) - 1
	if idx > t.mask {
		t.dropped.Add(1)
	}
	sp := new(Span)
	*sp = s
	t.slots[idx&t.mask].Store(sp)
}

// Len returns the number of spans currently retrievable (at most the
// ring capacity).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	n := t.next.Load()
	if n > t.mask+1 {
		n = t.mask + 1
	}
	return int(n)
}

// Dropped returns how many spans were overwritten by ring wraparound.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// Spans returns the retained spans, oldest first. Spans being published
// concurrently may or may not be included; every returned span is
// complete.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	n := t.next.Load()
	cap64 := t.mask + 1
	start := uint64(0)
	if n > cap64 {
		start = n - cap64
	}
	out := make([]Span, 0, n-start)
	for i := start; i < n; i++ {
		if sp := t.slots[i&t.mask].Load(); sp != nil {
			out = append(out, *sp)
		}
	}
	return out
}

// WriteJSONL writes the retained spans as one JSON object per line.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("obs: encode span: %w", err)
		}
	}
	return nil
}
