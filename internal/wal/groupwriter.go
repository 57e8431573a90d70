package wal

import (
	"fmt"
	"sync"
	"time"

	"lbc/internal/metrics"
	"lbc/internal/obs"
)

// GroupConfig tunes a GroupWriter. Zero values select defaults.
type GroupConfig struct {
	// MaxBatchRecords caps how many records one batch may carry.
	// Default 64.
	MaxBatchRecords int
	// MaxBatchBytes caps the encoded size of one batch. A single record
	// larger than the cap still ships alone — the cap bounds batching,
	// not record size. Default 1 MiB.
	MaxBatchBytes int
	// Stats, when non-nil, receives group-commit counters
	// (metrics.CtrGroupBatches etc.) and the fsync-latency and
	// batch-occupancy histograms.
	Stats *metrics.Stats
	// Trace, when non-nil and enabled, receives group.enqueue,
	// group.lead/group.follow, and wal.sync spans.
	Trace *obs.Tracer
}

// GroupWriter is a drop-in replacement for Writer that lets concurrent
// flush-mode committers share a single Append+Sync (group commit). The
// first committer to find the pending queue empty becomes the batch
// leader; committers arriving while the leader's predecessor batch is
// still on the device join the next batch, so batch formation is
// pipelined with device I/O. When the device stalls, the bounded pending
// queue exerts backpressure: committers block until the in-flight batch
// drains.
//
// There is no background goroutine and no timer: a batch's latency bound
// is the predecessor batch's I/O time, which is the natural group-commit
// window (a timer could only add latency on an idle device, where the
// leader writes immediately).
type GroupWriter struct {
	dev      Device
	stats    *metrics.Stats
	trace    *obs.Tracer
	maxRecs  int
	maxBytes int

	// mu guards the pending queue and the entry/byte totals. ioMu
	// serializes batch device I/O and is always acquired before mu.
	mu        sync.Mutex
	notFull   *sync.Cond
	pending   []groupEntry
	pendBytes int

	ioMu sync.Mutex

	entries int64
	bytes   int64
}

type groupEntry struct {
	enc   []byte
	flush bool
	done  chan groupResult
}

type groupResult struct {
	off int64
	err error
}

// NewGroupWriter returns a GroupWriter appending to dev.
func NewGroupWriter(dev Device, cfg GroupConfig) *GroupWriter {
	if cfg.MaxBatchRecords <= 0 {
		cfg.MaxBatchRecords = 64
	}
	if cfg.MaxBatchBytes <= 0 {
		cfg.MaxBatchBytes = 1 << 20
	}
	w := &GroupWriter{
		dev:      dev,
		stats:    cfg.Stats,
		trace:    cfg.Trace,
		maxRecs:  cfg.MaxBatchRecords,
		maxBytes: cfg.MaxBatchBytes,
	}
	w.notFull = sync.NewCond(&w.mu)
	return w
}

// Commit enqueues tx and returns once the batch carrying it has been
// appended (and, for flush, forced) to the device. Error semantics match
// Writer.Commit: a failed append returns (0, 0, err) with nothing
// counted; a failed force returns the real offset and size with an error
// wrapping ErrSyncFailed, and the batch's records stay counted because
// they occupy log space. Non-flush committers in a batch whose force
// fails see no error — they never asked for durability.
func (w *GroupWriter) Commit(tx *TxRecord, flush bool) (int64, int, error) {
	traced := w.trace.Enabled()
	var t0 time.Time
	if traced {
		t0 = time.Now()
	}
	ent := groupEntry{
		enc:   AppendStandard(make([]byte, 0, StandardSize(tx)), tx),
		flush: flush,
		done:  make(chan groupResult, 1),
	}
	w.mu.Lock()
	for len(w.pending) >= w.maxRecs || (len(w.pending) > 0 && w.pendBytes+len(ent.enc) > w.maxBytes) {
		w.notFull.Wait()
	}
	leader := len(w.pending) == 0
	w.pending = append(w.pending, ent)
	w.pendBytes += len(ent.enc)
	w.mu.Unlock()

	var t1 time.Time
	if traced {
		t1 = time.Now()
		w.trace.Emit(obs.Span{
			Name: obs.SpanEnqueue, Node: tx.Node, Tx: tx.TxSeq,
			Start: t0.UnixNano(), Dur: t1.Sub(t0).Nanoseconds(),
			N: int64(len(ent.enc)),
		})
	}
	if leader {
		w.writeBatch()
	}
	res := <-ent.done
	if traced {
		name := obs.SpanFollow
		if leader {
			name = obs.SpanLead
		}
		w.trace.Emit(obs.Span{
			Name: name, Node: tx.Node, Tx: tx.TxSeq,
			Start: t1.UnixNano(), Dur: time.Since(t1).Nanoseconds(),
		})
	}
	return res.off, len(ent.enc), res.err
}

// writeBatch drains the pending queue and writes it as one device
// append. Invariant: at most one committer per pending-nonempty epoch
// sees leader==true, so writeBatch calls line up on ioMu one per batch.
// While a leader waits on ioMu (predecessor batch in flight), followers
// keep enqueueing onto the queue the leader will drain.
func (w *GroupWriter) writeBatch() {
	w.ioMu.Lock()
	defer w.ioMu.Unlock()

	w.mu.Lock()
	batch := w.pending
	w.pending = nil
	w.pendBytes = 0
	w.notFull.Broadcast()
	w.mu.Unlock()

	var buf []byte
	needSync := false
	for _, e := range batch {
		buf = append(buf, e.enc...)
		if e.flush {
			needSync = true
		}
	}

	base, err := w.dev.Append(buf)
	if err != nil {
		for _, e := range batch {
			e.done <- groupResult{0, err}
		}
		return
	}
	w.mu.Lock()
	w.entries += int64(len(batch))
	w.bytes += int64(len(buf))
	w.mu.Unlock()
	if w.stats != nil {
		w.stats.Add(metrics.CtrGroupBatches, 1)
		w.stats.Add(metrics.CtrGroupBatchRecords, int64(len(batch)))
		w.stats.Add(metrics.CtrGroupBatchBytes, int64(len(buf)))
		w.stats.Observe(metrics.HistBatchRecords, int64(len(batch)))
	}

	var syncErr error
	if needSync {
		timed := w.stats != nil || w.trace.Enabled()
		var s0 time.Time
		if timed {
			s0 = time.Now()
		}
		serr := w.dev.Sync()
		if timed {
			d := time.Since(s0).Nanoseconds()
			if w.stats != nil {
				w.stats.Observe(metrics.HistFsyncNS, d)
			}
			w.trace.Emit(obs.Span{
				Name: obs.SpanSync, Start: s0.UnixNano(), Dur: d,
				N: int64(len(batch)),
			})
		}
		if serr != nil {
			syncErr = fmt.Errorf("%w: %w", ErrSyncFailed, serr)
		} else if w.stats != nil {
			w.stats.Add(metrics.CtrGroupSyncs, 1)
		}
	}

	off := base
	for _, e := range batch {
		res := groupResult{off: off}
		if e.flush {
			res.err = syncErr
		}
		e.done <- res
		off += int64(len(e.enc))
	}
}

// Entries returns the number of records written through this writer.
func (w *GroupWriter) Entries() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.entries
}

// Bytes returns the total encoded bytes written through this writer.
func (w *GroupWriter) Bytes() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.bytes
}
