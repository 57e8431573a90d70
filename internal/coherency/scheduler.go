package coherency

import (
	"errors"
	"fmt"
	"time"

	"lbc/internal/bufpool"
	"lbc/internal/metrics"
	"lbc/internal/netproto"
	"lbc/internal/obs"
	"lbc/internal/wal"
)

// decodeError counts a malformed frame (update batch, token record
// blob, checkpoint request or reply), both in aggregate and
// attributed to the sending node (a persistently garbling peer shows up
// by name in /debug/lbc instead of as an anonymous total).
func (n *Node) decodeError(from netproto.NodeID) {
	n.stats.Add(metrics.CtrDecodeErrors, 1)
	n.stats.Add(metrics.DecodeErrorsFrom(uint32(from)), 1)
}

// enqueue admits a record to the apply pipeline, on the goroutine that
// decoded it: the versioned read model holds it for Accept, otherwise it
// goes straight to the dependency scheduler, which parks it until its
// per-lock predecessors have been applied (§3.4) and installs it on a
// worker. Submit only classifies the record, so the caller (a transport
// reader, a pull, a token arrival) never waits on apply progress.
func (n *Node) enqueue(rec *wal.TxRecord) {
	n.outstanding.Add(1)
	n.mu.Lock()
	if n.versioned {
		n.buffered = append(n.buffered, rec)
		n.mu.Unlock()
		return
	}
	n.mu.Unlock()
	n.eng.Submit(rec)
}

// copyRecord deep-copies a record whose range data aliases a transient
// buffer.
func copyRecord(rec *wal.TxRecord) *wal.TxRecord {
	cp := &wal.TxRecord{
		Node:       rec.Node,
		TxSeq:      rec.TxSeq,
		Checkpoint: rec.Checkpoint,
		Locks:      append([]wal.LockRec(nil), rec.Locks...),
		Ranges:     make([]wal.RangeRec, len(rec.Ranges)),
	}
	var total int
	for _, r := range rec.Ranges {
		total += len(r.Data)
	}
	buf := make([]byte, 0, total)
	for i, r := range rec.Ranges {
		start := len(buf)
		buf = append(buf, r.Data...)
		cp.Ranges[i] = wal.RangeRec{Region: r.Region, Off: r.Off, Data: buf[start:len(buf):len(buf)]}
	}
	return cp
}

// Parked reports how many received records the apply pipeline currently
// holds waiting for their per-lock predecessors (the §3.4 interlock).
// Tests use it as a deterministic signal that an out-of-order record has
// been processed and parked.
func (n *Node) Parked() int { return n.eng.Parked() }

// Accept applies all updates buffered in versioned mode (§2.1-2.2: a
// reader explicitly signals its willingness to move forward to a newer
// consistent version). It returns the number of records moved into the
// apply path, after those that can apply have been installed. In
// non-versioned mode it is a no-op returning 0.
func (n *Node) Accept() int {
	n.mu.Lock()
	v := n.versioned
	n.mu.Unlock()
	if !v {
		return 0
	}
	k := n.handOver(false)
	n.eng.Settle()
	return k
}

// SetVersioned switches the versioned read model on or off at runtime.
// Turning it off flushes the buffered updates first.
func (n *Node) SetVersioned(v bool) {
	if v {
		n.mu.Lock()
		n.versioned = true
		n.mu.Unlock()
		return
	}
	if n.handOver(true) > 0 {
		n.eng.Settle()
	}
}

// handOver submits the versioned-mode buffer to the engine and returns
// how many records it moved. With off set it also leaves versioned mode,
// in the critical section that finds the buffer empty: a record arriving
// meanwhile either lands in a buffer that is still handed over, or sees
// the flag cleared after everything buffered before it was submitted.
// handMu keeps concurrent hand-overs from interleaving, so lock-free
// records reach the engine in the per-sender order they arrived in.
func (n *Node) handOver(off bool) int {
	n.handMu.Lock()
	defer n.handMu.Unlock()
	moved := 0
	for {
		n.mu.Lock()
		buf := n.buffered
		n.buffered = nil
		if off && len(buf) == 0 {
			n.versioned = false
		}
		n.mu.Unlock()
		for _, rec := range buf {
			n.eng.Submit(rec)
		}
		moved += len(buf)
		if !off || len(buf) == 0 {
			return moved
		}
	}
}

// installRecord is the engine's Install callback: it installs one
// record into the local image and advances the interlock. It runs on an
// apply worker; the engine guarantees per-chain and per-sender order
// and that no identity is in flight twice.
func (n *Node) installRecord(worker int, rec *wal.TxRecord) error {
	traced := n.trace.Enabled()
	var t0 time.Time
	if traced {
		t0 = time.Now()
	}
	start := time.Now()
	tm := metrics.StartTimer(n.stats, metrics.PhaseApply)
	bytes, err := n.rvm.ApplyRecord(rec)
	tm.Stop()
	if traced {
		n.trace.Emit(obs.Span{
			Name: obs.SpanApply, Node: rec.Node, Tx: rec.TxSeq,
			Start: t0.UnixNano(), Dur: time.Since(t0).Nanoseconds(),
			N: int64(bytes), Worker: worker,
		})
	}
	if err != nil {
		// Do not mark applied: the chain stalls at this record and its
		// successors stay parked.
		n.stats.Add(metrics.CtrApplyErrors, 1)
		return err
	}
	for _, l := range rec.Locks {
		if l.Wrote {
			n.locks.MarkApplied(l.LockID, l.Seq)
		}
	}
	busy := time.Since(start)
	n.stats.Add(metrics.CtrRecordsApplied, 1)
	n.stats.Add(metrics.CtrBytesApplied, int64(bytes))
	n.stats.Add(metrics.CtrApplyWorkerBusyNS, busy.Nanoseconds())
	n.stats.Observe(metrics.HistApplyNS, busy.Nanoseconds())
	return nil
}

// recordDone releases a record that reached a terminal state (installed
// or dropped): its pooled arena, if any, goes back to bufpool and the
// outstanding gauge drops.
func (n *Node) recordDone(rec *wal.TxRecord) {
	n.arenaMu.Lock()
	buf, pooled := n.arenas[rec]
	if pooled {
		delete(n.arenas, rec)
	}
	n.arenaMu.Unlock()
	if pooled {
		bufpool.Put(buf)
	}
	n.outstanding.Add(-1)
}

// adoptRecord moves a record decoded from a transport-owned buffer
// onto a pooled arena. The decoded struct and its lock/range headers
// are already fresh allocations (DecodeCompressed never aliases them
// into the input), so only the range data — which does alias the
// transport buffer — is copied out; the transport may recycle its
// buffer as soon as the handler returns. The arena is returned to the
// pool by recordDone once the record is terminal. Records that outlive
// the pipeline (piggyback retention) must use copyRecord instead.
func (n *Node) adoptRecord(rec *wal.TxRecord) *wal.TxRecord {
	var total int
	for _, r := range rec.Ranges {
		total += len(r.Data)
	}
	buf := bufpool.Get(total)
	for i := range rec.Ranges {
		start := len(buf)
		buf = append(buf, rec.Ranges[i].Data...)
		rec.Ranges[i].Data = buf[start:len(buf):len(buf)]
	}
	n.arenaMu.Lock()
	n.arenas[rec] = buf
	n.arenaMu.Unlock()
	return rec
}

// ApplyQueueDepth reports how many records have been admitted to the
// apply pipeline but not yet installed or dropped (queued, parked,
// buffered, or in flight). Exported as the apply_queue_depth gauge.
func (n *Node) ApplyQueueDepth() int64 { return n.outstanding.Load() }

// Quiesce blocks until the apply pipeline is empty: every admitted
// record installed or dropped. Records parked on predecessors that
// never arrive (and versioned-mode buffered records) keep it waiting,
// so it is a benchmark/test barrier for complete delivery, not a
// production fence.
func (n *Node) Quiesce(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if n.outstanding.Load() == 0 {
			return nil
		}
		select {
		case <-n.done:
			return errors.New("coherency: node closed while quiescing")
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("coherency: quiesce timeout with %d records outstanding (%d parked)",
				n.outstanding.Load(), n.Parked())
		}
		time.Sleep(200 * time.Microsecond)
	}
}
