// Package parapply is the dependency-scheduled parallel apply engine
// for coherency records. The paper's receiver thread (§3.2) installs
// incoming records serially, but the §3.4 ordering interlock only
// constrains records on the same per-lock write chain: segments
// partition the store, so records whose written-lock sets touch
// disjoint chains modify disjoint bytes and may install concurrently
// ("Scaling Distributed Transaction Processing and Recovery based on
// Dependency Logging", arXiv:1703.02722, makes the same observation
// for replay).
//
// The engine classifies each submitted record by its embedded lock
// records:
//
//   - A record that wrote under locks is ready once, for every written
//     lock, the locally applied sequence has reached the record's
//     PrevWriteSeq. Otherwise it parks, indexed by the lock that
//     blocks it, so completing lock L's predecessor wakes only L's
//     waiters — there is no rescan of the full parked set.
//   - A record without written locks (the lock-free DSM path) is
//     serialized per sender: per-sender FIFO is the only ordering
//     those records have, and successive records may overwrite the
//     same bytes.
//
// Duplicate deliveries (eager broadcast + lazy pull + token piggyback
// can each deliver the same record) are suppressed twice over: records
// whose chains have already advanced past them are dropped as stale,
// and a record whose (node, TxSeq) identity is already queued or in
// flight is dropped immediately — without that, two workers could
// install the same bytes concurrently, which is a data race even when
// the writes are identical.
//
// The engine is the coherency layer's live receive path. Offline
// replay (rvm.Recover, coherency.CatchUp) does not use it: a merged log
// is already a serial order that respects every chain, so it installs
// in order.
package parapply

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"lbc/internal/wal"
)

// Config configures an Engine. Applied and Install are required.
type Config struct {
	// Workers is the number of apply workers (default
	// min(GOMAXPROCS, 8); at least 1).
	Workers int
	// Applied returns the locally applied write sequence for a lock
	// (the interlock state, e.g. lockmgr.Manager.Applied). Called with
	// the engine's internal mutex held: it must not call back into the
	// engine.
	Applied func(lockID uint32) uint64
	// Install applies one record. It runs on a worker goroutine; the
	// engine guarantees that records on one lock chain (and lock-free
	// records from one sender) are installed sequentially, and that no
	// two Install calls ever receive the same (node, TxSeq) identity
	// concurrently. On success Install must advance the interlock
	// state Applied reads (e.g. MarkApplied), so dependent records
	// become ready. worker is the 1-based worker index.
	Install func(worker int, rec *wal.TxRecord) error
	// Done, when non-nil, is called after Install returns and the
	// record's completion has been published (dependents woken). It
	// runs on the worker goroutine without engine locks held.
	Done func(rec *wal.TxRecord, err error)
	// Drop, when non-nil, is called for records discarded without
	// installation (stale or duplicate). Runs without engine locks.
	Drop func(rec *wal.TxRecord)
}

type ident struct {
	node uint32
	seq  uint64
}

// parkedRec is one parked record, keyed by the PrevWriteSeq it is
// waiting for on the lock it is parked under. Per-lock park lists stay
// sorted by that key, so a wake pops exactly the prefix whose
// predecessors have been applied instead of rescanning every waiter.
type parkedRec struct {
	prev uint64
	rec  *wal.TxRecord
}

// Engine schedules records onto its worker pool respecting per-chain
// and per-sender ordering. All methods are safe for concurrent use.
type Engine struct {
	cfg Config

	mu         sync.Mutex
	readyCond  sync.Cond // a record became ready, or the engine closed
	stateCond  sync.Cond // ready/inflight/parked changed (Settled waiters)
	ready      []*wal.TxRecord
	waiting    map[uint32][]parkedRec // parked records by blocking lock, ascending prev
	waitCount  int
	pending    map[ident]struct{} // identities queued or in flight
	senderSeq  map[uint32]uint64  // highest installed lock-free TxSeq per sender
	senderBusy map[uint32]bool    // sender has a lock-free record scheduled
	senderQ    map[uint32][]*wal.TxRecord
	inflight   int
	closed     bool

	parked atomic.Int64 // mirrors waitCount for lock-free reads
	wg     sync.WaitGroup
}

// New starts an engine with cfg.Workers apply workers.
func New(cfg Config) *Engine {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
		if cfg.Workers > 8 {
			cfg.Workers = 8
		}
	}
	e := &Engine{
		cfg:        cfg,
		waiting:    map[uint32][]parkedRec{},
		pending:    map[ident]struct{}{},
		senderSeq:  map[uint32]uint64{},
		senderBusy: map[uint32]bool{},
		senderQ:    map[uint32][]*wal.TxRecord{},
	}
	e.readyCond.L = &e.mu
	e.stateCond.L = &e.mu
	for i := 1; i <= cfg.Workers; i++ {
		e.wg.Add(1)
		go e.worker(i)
	}
	return e
}

// Submit hands a record to the scheduler. It classifies the record
// (ready, parked, sender-queued, or dropped) and returns immediately;
// installation happens on the worker pool. Submit never blocks on
// apply progress. Returns false if the engine is closed (the record is
// dropped via the Drop callback).
func (e *Engine) Submit(rec *wal.TxRecord) bool {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		e.callDrop(rec)
		return false
	}
	drops := e.submitLocked(rec, nil)
	e.mu.Unlock()
	for _, d := range drops {
		e.callDrop(d)
	}
	return true
}

// submitLocked classifies rec, appending any immediately dropped
// records to drops (returned for calling Drop outside the lock).
func (e *Engine) submitLocked(rec *wal.TxRecord, drops []*wal.TxRecord) []*wal.TxRecord {
	if e.staleLocked(rec) {
		return append(drops, rec)
	}
	key := ident{rec.Node, rec.TxSeq}
	if _, dup := e.pending[key]; dup {
		// Identity already queued or in flight: installing it twice
		// concurrently would race, and installing it after the first
		// copy completes would be caught as stale anyway.
		return append(drops, rec)
	}
	e.pending[key] = struct{}{}

	if !wroteLocks(rec) {
		// Lock-free path: per-sender FIFO is the ordering contract.
		if e.senderBusy[rec.Node] {
			e.senderQ[rec.Node] = append(e.senderQ[rec.Node], rec)
			return drops
		}
		e.senderBusy[rec.Node] = true
		e.pushReadyLocked(rec)
		return drops
	}

	if blocked, lockID := e.blockedOnLocked(rec); blocked {
		e.parkLocked(lockID, rec)
		return drops
	}
	e.pushReadyLocked(rec)
	return drops
}

// staleLocked reports whether the record was already installed
// (duplicate delivery across paths — eager broadcast, lazy pull, token
// piggyback). A record that wrote under locks was installed iff every
// written lock's chain has reached its sequence (chains apply in
// order); the check matters for correctness, not just economy, because
// re-installing an old record after its successor would resurrect
// overwritten bytes. Lock-free records fall back to the per-sender
// high-water mark. The per-sender sequence must NOT be consulted for
// lock-bearing records — one sender's transactions on unrelated locks
// may legitimately install out of commit order.
func (e *Engine) staleLocked(rec *wal.TxRecord) bool {
	wrote := false
	for _, l := range rec.Locks {
		if !l.Wrote {
			continue
		}
		wrote = true
		if e.cfg.Applied(l.LockID) < l.Seq {
			return false
		}
	}
	if wrote {
		return true
	}
	return rec.TxSeq <= e.senderSeq[rec.Node]
}

// blockedOnLocked returns the first written lock whose predecessor has
// not been applied yet.
func (e *Engine) blockedOnLocked(rec *wal.TxRecord) (bool, uint32) {
	for _, l := range rec.Locks {
		if l.Wrote && e.cfg.Applied(l.LockID) < l.PrevWriteSeq {
			return true, l.LockID
		}
	}
	return false, 0
}

func wroteLocks(rec *wal.TxRecord) bool {
	for _, l := range rec.Locks {
		if l.Wrote {
			return true
		}
	}
	return false
}

func (e *Engine) pushReadyLocked(rec *wal.TxRecord) {
	e.ready = append(e.ready, rec)
	e.readyCond.Signal()
}

func (e *Engine) parkLocked(lockID uint32, rec *wal.TxRecord) {
	prev := prevFor(rec, lockID)
	w := e.waiting[lockID]
	i := sort.Search(len(w), func(i int) bool { return w[i].prev > prev })
	w = append(w, parkedRec{})
	copy(w[i+1:], w[i:])
	w[i] = parkedRec{prev: prev, rec: rec}
	e.waiting[lockID] = w
	e.waitCount++
	e.parked.Store(int64(e.waitCount))
}

// prevFor returns the PrevWriteSeq rec waits for on lockID (the park
// list's sort key). parkLocked is only called with a lock
// blockedOnLocked reported, so a written entry for lockID exists.
func prevFor(rec *wal.TxRecord, lockID uint32) uint64 {
	for _, l := range rec.Locks {
		if l.Wrote && l.LockID == lockID {
			return l.PrevWriteSeq
		}
	}
	return 0
}

// worker pulls ready records, installs them, and publishes completion.
func (e *Engine) worker(id int) {
	defer e.wg.Done()
	e.mu.Lock()
	for {
		for len(e.ready) == 0 && !e.closed {
			e.readyCond.Wait()
		}
		if len(e.ready) == 0 { // closed and drained
			e.mu.Unlock()
			return
		}
		rec := e.ready[0]
		e.ready = e.ready[1:]
		e.inflight++
		e.mu.Unlock()

		err := e.cfg.Install(id, rec)

		e.mu.Lock()
		e.inflight--
		drops := e.completeLocked(rec, err)
		e.stateCond.Broadcast()
		e.mu.Unlock()

		if e.cfg.Done != nil {
			e.cfg.Done(rec, err)
		}
		for _, d := range drops {
			e.callDrop(d)
		}
		e.mu.Lock()
	}
}

// completeLocked publishes a record's completion: clears its identity,
// advances the per-sender high-water mark, releases the sender queue,
// and wakes exactly the waiters parked on the record's written locks.
func (e *Engine) completeLocked(rec *wal.TxRecord, err error) []*wal.TxRecord {
	delete(e.pending, ident{rec.Node, rec.TxSeq})
	var drops []*wal.TxRecord
	if !wroteLocks(rec) {
		// Only lock-free installs move the sender's high-water mark: a
		// lock-bearing record from the same sender may overtake a queued
		// lock-free one on another worker, and must not make it stale.
		if err == nil && rec.TxSeq > e.senderSeq[rec.Node] {
			e.senderSeq[rec.Node] = rec.TxSeq
		}
		// Dispatch the sender's next queued record (dropping any that
		// became stale while queued).
		q := e.senderQ[rec.Node]
		dispatched := false
		for len(q) > 0 {
			next := q[0]
			q = q[1:]
			if e.staleLocked(next) {
				delete(e.pending, ident{next.Node, next.TxSeq})
				drops = append(drops, next)
				continue
			}
			e.pushReadyLocked(next)
			dispatched = true
			break
		}
		e.senderQ[rec.Node] = q
		if !dispatched {
			e.senderBusy[rec.Node] = false
		}
		return drops
	}
	for _, l := range rec.Locks {
		if l.Wrote {
			drops = e.wakeLockLocked(l.LockID, drops)
		}
	}
	return drops
}

// wakeLockLocked pops the eligible prefix of lockID's park list — the
// records whose awaited PrevWriteSeq the chain has now reached — and
// re-evaluates only those: stale ones are dropped, ready ones
// dispatched, ones blocked on a different lock re-park there. Waiters
// deeper in the chain stay in place untouched; a stale parked record
// always satisfies prev < Seq ≤ applied, so it is within the prefix and
// cannot linger.
func (e *Engine) wakeLockLocked(lockID uint32, drops []*wal.TxRecord) []*wal.TxRecord {
	w := e.waiting[lockID]
	if len(w) == 0 {
		return drops
	}
	applied := e.cfg.Applied(lockID)
	k := sort.Search(len(w), func(i int) bool { return w[i].prev > applied })
	if k == 0 {
		return drops
	}
	eligible := w[:k]
	if k == len(w) {
		delete(e.waiting, lockID)
	} else {
		e.waiting[lockID] = w[k:]
	}
	e.waitCount -= k
	for _, pr := range eligible {
		rec := pr.rec
		if e.staleLocked(rec) {
			delete(e.pending, ident{rec.Node, rec.TxSeq})
			drops = append(drops, rec)
			continue
		}
		if blocked, id := e.blockedOnLocked(rec); blocked {
			e.parkLocked(id, rec)
			continue
		}
		e.pushReadyLocked(rec)
	}
	e.parked.Store(int64(e.waitCount))
	return drops
}

// WakeLocks re-evaluates records parked on the given locks. The
// coherency layer calls it when a local commit advances applied
// sequences outside the engine (lockmgr.Release on a written lock).
func (e *Engine) WakeLocks(lockIDs []uint32) {
	if len(lockIDs) == 0 {
		return
	}
	e.mu.Lock()
	var drops []*wal.TxRecord
	for _, id := range lockIDs {
		drops = e.wakeLockLocked(id, drops)
	}
	e.stateCond.Broadcast()
	e.mu.Unlock()
	for _, d := range drops {
		e.callDrop(d)
	}
}

// WakeAll re-evaluates every parked record (after a pull or catch-up
// advanced many chains at once).
func (e *Engine) WakeAll() {
	e.mu.Lock()
	ids := make([]uint32, 0, len(e.waiting))
	for id := range e.waiting {
		ids = append(ids, id)
	}
	var drops []*wal.TxRecord
	for _, id := range ids {
		drops = e.wakeLockLocked(id, drops)
	}
	e.stateCond.Broadcast()
	e.mu.Unlock()
	for _, d := range drops {
		e.callDrop(d)
	}
}

// Parked reports how many records are held by the §3.4 interlock.
func (e *Engine) Parked() int { return int(e.parked.Load()) }

// QueueDepth reports records admitted but not yet terminal: parked,
// ready, sender-queued, or in flight.
func (e *Engine) QueueDepth() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := e.waitCount + len(e.ready) + e.inflight
	for _, q := range e.senderQ {
		n += len(q)
	}
	return n
}

// Settle blocks until no record is ready or in flight (parked records
// do not count: they are waiting for predecessors that may never
// arrive). Returns the number of parked records at that point.
func (e *Engine) Settle() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	for (len(e.ready) > 0 || e.inflight > 0) && !e.closed {
		e.stateCond.Wait()
	}
	return e.waitCount
}

// Close stops the workers after in-flight and ready records finish.
// Parked and sender-queued records are discarded via Drop. Safe to
// call once; Submit after Close returns false.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		e.wg.Wait()
		return
	}
	e.closed = true
	var drops []*wal.TxRecord
	for id, waiters := range e.waiting {
		for _, pr := range waiters {
			drops = append(drops, pr.rec)
		}
		delete(e.waiting, id)
	}
	e.waitCount = 0
	e.parked.Store(0)
	for id, q := range e.senderQ {
		drops = append(drops, q...)
		delete(e.senderQ, id)
	}
	for _, d := range drops {
		delete(e.pending, ident{d.Node, d.TxSeq})
	}
	e.readyCond.Broadcast()
	e.stateCond.Broadcast()
	e.mu.Unlock()
	for _, d := range drops {
		e.callDrop(d)
	}
	e.wg.Wait()
}

func (e *Engine) callDrop(rec *wal.TxRecord) {
	if e.cfg.Drop != nil {
		e.cfg.Drop(rec)
	}
}
