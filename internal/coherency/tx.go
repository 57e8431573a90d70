package coherency

import (
	"errors"
	"fmt"
	"io"
	"time"

	"lbc/internal/lockmgr"
	"lbc/internal/merge"
	"lbc/internal/metrics"
	"lbc/internal/obs"
	"lbc/internal/rvm"
	"lbc/internal/wal"
)

// Tx is a distributed transaction: an RVM transaction plus two-phase
// segment locks and commit-time update propagation. It implements the
// left column of the paper's Table 1:
//
//	Trans.Init/Begin  -> Node.Begin
//	Trans.Acquire     -> Tx.Acquire  (calls rvm_setlockid_transaction)
//	Trans.SetRange    -> Tx.SetRange (calls rvm_set_range)
//	Trans.Commit      -> Tx.Commit   (calls rvm_end_transaction)
type Tx struct {
	node   *Node
	inner  *rvm.Tx
	grants []lockmgr.Grant
	shared []uint32 // lock ids held in shared (read) mode
	done   bool
}

// Begin starts a distributed transaction.
func (n *Node) Begin(mode rvm.TxMode) *Tx {
	return &Tx{node: n, inner: n.rvm.Begin(mode)}
}

// Acquire takes the segment lock inside the transaction (strict
// two-phase locking: all locks release at commit). It blocks until the
// token arrives and — per the §3.4 interlock — all updates through the
// last writer's sequence number have been applied locally. In lazy
// mode the pending records are pulled from the storage server here.
// In versioned mode buffered updates are accepted first so the
// transaction starts from the newest committed version.
func (t *Tx) Acquire(lockID uint32) error {
	if t.done {
		return rvm.ErrTxDone
	}
	for _, g := range t.grants {
		if g.LockID == lockID {
			return fmt.Errorf("coherency: lock %d already held by transaction", lockID)
		}
	}
	n := t.node
	n.Accept() // no-op unless versioned

	traced := t.inner.Traced()
	var t0 time.Time
	if traced {
		t0 = time.Now()
	}
	var g lockmgr.Grant
	var err error
	if n.readsPeerLogs() {
		// Lazy propagation — or eager with pull-on-stall fault
		// tolerance: take the token without the interlock, then pull
		// and apply pending records from the server logs ourselves.
		if n.acqTimeout > 0 {
			g, err = n.locks.AcquireNoInterlockTimeout(lockID, n.acqTimeout)
		} else {
			g, err = n.locks.AcquireNoInterlock(lockID)
		}
		if err == nil {
			if perr := n.pullUpdates(lockID, g.PrevWriteSeq); perr != nil {
				n.locks.Release(lockID, false)
				return perr
			}
		}
	} else if n.acqTimeout > 0 {
		g, err = n.locks.AcquireTimeout(lockID, n.acqTimeout)
	} else {
		g, err = n.locks.Acquire(lockID)
	}
	if err != nil {
		return err
	}
	// Holding the lock is the interest signal: updates to its segment
	// should route here from now on.
	n.registerInterest(lockID)
	if err := t.inner.SetLock(lockID, g.Seq, g.PrevWriteSeq); err != nil {
		n.locks.Release(lockID, false)
		return err
	}
	if traced {
		// Buffered on the transaction: the (node, txSeq) identity does
		// not exist until Commit, which stamps and emits it.
		t.inner.AddSpan(obs.Span{
			Name: obs.SpanLock, Lock: lockID,
			Start: t0.UnixNano(), Dur: time.Since(t0).Nanoseconds(),
			N: int64(g.Seq),
		})
	}
	t.grants = append(t.grants, g)
	return nil
}

// AcquireShared takes the segment lock in shared (read) mode: any
// number of readers on this node proceed concurrently, each guaranteed
// by the interlock to observe all committed updates through the lock's
// last writer. Shared holds release at commit like exclusive ones but
// leave no lock records (readers do not order writers). Writes under a
// merely shared lock are an application error (CheckLocks catches it).
func (t *Tx) AcquireShared(lockID uint32) error {
	if t.done {
		return rvm.ErrTxDone
	}
	for _, id := range t.shared {
		if id == lockID {
			return fmt.Errorf("coherency: lock %d already held shared by transaction", lockID)
		}
	}
	n := t.node
	n.Accept() // no-op unless versioned

	var err error
	if n.readsPeerLogs() {
		var g lockmgr.Grant
		g, err = n.locks.AcquireSharedNoInterlock(lockID)
		if err == nil {
			if perr := n.pullUpdates(lockID, g.PrevWriteSeq); perr != nil {
				n.locks.ReleaseShared(lockID)
				return perr
			}
		}
	} else {
		_, err = n.locks.AcquireShared(lockID)
	}
	if err != nil {
		return err
	}
	n.registerInterest(lockID)
	t.shared = append(t.shared, lockID)
	return nil
}

// SetRange declares an upcoming write (rvm_set_range). With CheckLocks
// enabled, writes inside a registered segment require its lock.
func (t *Tx) SetRange(reg *rvm.Region, off uint64, n uint32) error {
	if t.node.checkLk {
		if err := t.checkLocked(reg.ID(), off, off+uint64(n)); err != nil {
			return err
		}
	}
	return t.inner.SetRange(reg, off, n)
}

// Write is a convenience that declares and performs a write.
func (t *Tx) Write(reg *rvm.Region, off uint64, data []byte) error {
	if err := t.SetRange(reg, off, uint32(len(data))); err != nil {
		return err
	}
	copy(reg.Bytes()[off:], data)
	return nil
}

func (t *Tx) checkLocked(region rvm.RegionID, off, end uint64) error {
	t.node.mu.Lock()
	defer t.node.mu.Unlock()
	for lockID, seg := range t.node.segments {
		if !seg.overlaps(region, off, end) {
			continue
		}
		held := false
		for _, g := range t.grants {
			if g.LockID == lockID {
				held = true
				break
			}
		}
		if !held {
			return fmt.Errorf("%w: lock %d covering region %d [%d,%d)",
				ErrLockNotHeld, lockID, region, off, end)
		}
	}
	return nil
}

// Commit commits the transaction: the redo record is appended to the
// durable log, per-segment Wrote flags are resolved, the record is
// eagerly broadcast to peers with the modified regions mapped, and all
// locks are released (advancing their write chains).
func (t *Tx) Commit(mode rvm.CommitMode) (*wal.TxRecord, error) {
	if t.done {
		return nil, rvm.ErrTxDone
	}
	t.done = true
	n := t.node

	rec, err := t.inner.Commit(mode)
	if err != nil {
		// The locks are still held but the transaction is dead;
		// release them without advancing write chains.
		for _, g := range t.grants {
			n.locks.Release(g.LockID, false)
		}
		for _, id := range t.shared {
			n.locks.ReleaseShared(id)
		}
		return nil, err
	}

	// Resolve per-lock Wrote: a lock wrote only if the transaction
	// modified bytes inside its registered segment. Locks without a
	// registered segment fall back to "transaction wrote anything"
	// (the conservative default rvm chose).
	wrote := make(map[uint32]bool, len(t.grants))
	n.mu.Lock()
	for _, g := range t.grants {
		seg, ok := n.segments[g.LockID]
		if !ok {
			wrote[g.LockID] = rec.Wrote()
			continue
		}
		w := false
		for _, r := range rec.Ranges {
			if seg.overlaps(rvm.RegionID(r.Region), r.Off, r.End()) {
				w = true
				break
			}
		}
		wrote[g.LockID] = w
	}
	n.mu.Unlock()
	for i := range rec.Locks {
		rec.Locks[i].Wrote = wrote[rec.Locks[i].LockID]
	}

	// Pages-updated statistic (Table 3).
	n.stats.Add(metrics.CtrPagesTouched, int64(countPages(rec.Ranges, n.pageSize)))

	// Eager propagation: the record joins the send window of every
	// interested peer before the locks release, so each peer's frames
	// carry it in commit order.
	if n.prop == Eager && rec.Wrote() {
		n.broadcast(rec)
	}
	// Piggyback propagation: retain the record so the next token pass
	// for its locks carries it (must precede Release, which may pass
	// the token).
	if n.prop == Piggyback && rec.Wrote() {
		n.retainRecord(rec)
	}

	// Two-phase release at commit; writing locks advance their chains
	// and satisfy the local interlock.
	for _, g := range t.grants {
		n.locks.Release(g.LockID, wrote[g.LockID])
	}
	for _, id := range t.shared {
		n.locks.ReleaseShared(id)
	}
	if len(t.grants) > 0 {
		// Local applied sequences moved; retry exactly the records
		// parked on the locks this commit advanced.
		ids := make([]uint32, 0, len(t.grants))
		for _, g := range t.grants {
			if wrote[g.LockID] {
				ids = append(ids, g.LockID)
			}
		}
		n.eng.WakeLocks(ids)
	}
	return rec, nil
}

// Abort rolls the transaction back and releases its locks without
// advancing any write chain.
func (t *Tx) Abort() error {
	if t.done {
		return rvm.ErrTxDone
	}
	t.done = true
	err := t.inner.Abort()
	for _, g := range t.grants {
		t.node.locks.Release(g.LockID, false)
	}
	for _, id := range t.shared {
		t.node.locks.ReleaseShared(id)
	}
	return err
}

// BroadcastRecord sends an externally built record to every peer that
// has the modified regions mapped. The DSM baseline harness uses it to
// ship page/diff updates through the same wire path as log-based
// coherency; records without lock records apply unconditionally at
// receivers.
func (n *Node) BroadcastRecord(rec *wal.TxRecord) { n.broadcast(rec) }

// pullUpdates implements lazy propagation: read the per-node logs on
// the storage server from our last read position, enqueue every new
// committed record, and wait until the lock's chain has been applied
// through targetSeq.
func (n *Node) pullUpdates(lockID uint32, targetSeq uint64) error {
	// Each round pulls the server logs, then parks on the interlock's
	// condition variable with a bounded window: MarkApplied wakes it
	// immediately, and only a genuinely missing record (still in
	// flight from an interleaved writer, or lost) costs another pull.
	const pullWindow = 2 * time.Millisecond
	deadline := time.Now().Add(10 * time.Second)
	rescanned := false
	firstRound := true
	for n.locks.Applied(lockID) < targetSeq {
		if time.Now().After(deadline) {
			return fmt.Errorf("coherency: pull for lock %d stalled at %d < %d",
				lockID, n.locks.Applied(lockID), targetSeq)
		}
		// Eager modes pull only as a backstop: the broadcast usually
		// trails the token pass by microseconds, so give it one window
		// before the first round of server-log reads. Later rounds skip
		// the grace — the frames are evidently not coming, and paying
		// the window per retry would compound the stall.
		if firstRound {
			firstRound = false
			if n.prop == Eager && n.locks.AwaitApplied(lockID, targetSeq, pullWindow) {
				return nil
			}
		}
		// Pull from every cluster member's server-side log, not just
		// the transport's live peers: a crashed node's committed
		// records are still in its log, and chains through them must
		// stay completable while it is down.
		for _, p := range n.clusterNodes {
			if p == n.tr.Self() {
				continue
			}
			if err := n.pullPeerLog(uint32(p)); err != nil {
				return err
			}
		}
		n.eng.WakeAll()
		if n.locks.AwaitApplied(lockID, targetSeq, pullWindow) {
			return nil
		}
		if !rescanned {
			// A full pull round made no progress. A checkpoint may have
			// head-trimmed a log to exactly the length of our saved read
			// position — a tail read then looks like "no news" even
			// though the bytes under the offset changed. Rescan every
			// log from its head once; duplicates are dropped as stale by
			// the appliers.
			rescanned = true
			n.rescanPeerLogs()
		}
	}
	return n.locks.WaitApplied(lockID, targetSeq)
}

// pullPeerLog fetches and enqueues the unread tail of one peer's log.
// Checkpoints head-trim these logs online, shifting every byte offset
// under us: when the saved read position lands beyond the end or
// inside a record, the log is rescanned from its new head and the
// position rebased. Re-enqueued records are dropped as stale by the
// appliers' lock-sequence and per-sender dedup, so a rescan is always
// safe — just wasted work, counted in pull_rescans.
func (n *Node) pullPeerLog(peer uint32) error {
	n.mu.Lock()
	from := n.readPos[peer]
	n.mu.Unlock()

	dev := n.peerLogs(peer)
	pos, _, suspectTrim, corrupt, err := n.scanPeerLog(dev, from)
	if err != nil {
		return fmt.Errorf("coherency: read peer %d log: %w", peer, err)
	}
	// Interior corruption on a pull read is overwhelmingly a transient
	// bad read: re-scan from the sound prefix a bounded number of
	// times — each retry re-reads the damaged range afresh, and the
	// records recovered past it are counted as repaired.
	for attempt := 0; corrupt && attempt < 2; attempt++ {
		pos2, scanned, _, corrupt2, rerr := n.scanPeerLog(dev, pos)
		if rerr != nil {
			break
		}
		if scanned > 0 {
			n.stats.Add(metrics.CtrRepairRecords, int64(scanned))
		}
		if pos2 > pos {
			pos = pos2
		}
		corrupt = corrupt2
	}
	if suspectTrim {
		n.stats.Add(metrics.CtrPullRescans, 1)
		pos, _, _, _, err = n.scanPeerLog(dev, 0)
		if err != nil {
			return fmt.Errorf("coherency: rescan peer %d log: %w", peer, err)
		}
		n.mu.Lock()
		// Rebase rather than max: the old position counted bytes that no
		// longer exist.
		n.readPos[peer] = pos
		n.mu.Unlock()
		return nil
	}
	n.mu.Lock()
	if pos > n.readPos[peer] {
		n.readPos[peer] = pos
	}
	n.mu.Unlock()
	return nil
}

// scanPeerLog reads one peer log from the given offset, enqueueing
// every committed record, and returns the offset just past the last
// complete one. suspectTrim reports read patterns indicating the log
// head was trimmed under the caller's saved position — the log is now
// shorter than the offset, the device refuses the offset outright, or
// the very first decode at a nonzero offset hits garbage (a mid-record
// landing) — rather than a clean tail. corrupt reports interior
// corruption just past the returned position: sound records exist
// beyond damage the scan could not cross, so the caller should retry
// from pos (a transient bad read clears on the re-read).
func (n *Node) scanPeerLog(dev wal.Device, from int64) (pos int64, scanned int, suspectTrim, corrupt bool, err error) {
	if from > 0 {
		if sz, serr := dev.Size(); serr == nil && sz < from {
			return from, 0, true, false, nil
		}
	}
	tm := metrics.StartTimer(n.stats, metrics.PhaseNetIO)
	rc, err := dev.Open(from)
	tm.Stop()
	if err != nil {
		if from > 0 {
			return from, 0, true, false, nil // offset beyond a shrunken log
		}
		return 0, 0, false, false, err
	}
	defer rc.Close()
	sc := wal.NewScanner(rc, from)
	pos = from
	for {
		rec, rerr := sc.Next()
		if rerr != nil {
			if errors.Is(rerr, wal.ErrInteriorCorruption) {
				n.stats.Add(metrics.CtrLogCorruption, 1)
				corrupt = true
			}
			break // io.EOF (possibly torn): stop at the valid prefix
		}
		scanned++
		pos += int64(wal.StandardSize(rec))
		if rec.Checkpoint {
			continue // durable marker, not a committed update
		}
		n.enqueue(rec)
	}
	if torn, _ := sc.Torn(); torn && scanned == 0 && from > 0 {
		// Garbage right at the resume offset: almost certainly a trim
		// landed us mid-record (a genuine torn tail still decodes
		// cleanly up to the tear). A spurious rescan is safe either way.
		return from, scanned, true, false, nil
	}
	return pos, scanned, false, corrupt, nil
}

// rescanPeerLogs re-reads every cluster member's log from its head and
// rebases the saved read positions — the recovery path for head trims
// a tail read cannot detect. Errors are per-log best effort: a log
// that cannot be read now simply keeps its old position.
func (n *Node) rescanPeerLogs() {
	for _, p := range n.clusterNodes {
		if p == n.tr.Self() {
			continue
		}
		n.stats.Add(metrics.CtrPullRescans, 1)
		pos, _, _, _, err := n.scanPeerLog(n.peerLogs(uint32(p)), 0)
		if err != nil {
			continue
		}
		n.mu.Lock()
		n.readPos[uint32(p)] = pos
		n.mu.Unlock()
	}
	n.eng.WakeAll()
}

// readsPeerLogs reports whether this node ever consumes records from
// the server-side logs: always under lazy propagation, as the loss
// backstop under pull-on-stall. (Both require PeerLogs, checked in New.)
func (n *Node) readsPeerLogs() bool {
	return n.prop == Lazy || n.pullStall
}

// drainPeerLogs pulls every cluster member's server-side log to its
// current end. The coordinated checkpoint runs it on every node that
// reads those logs before any log head is trimmed, so no lazy consumer
// is left holding a read position — or missing records — below a cut.
// A node that never reads those logs has neither, so for it this is a
// no-op: re-reading and re-decoding every peer's log only to drop each
// record as stale would put O(log) store traffic on the connection its
// commits share.
func (n *Node) drainPeerLogs() error {
	if !n.readsPeerLogs() {
		return nil
	}
	for _, p := range n.clusterNodes {
		if p == n.tr.Self() {
			continue
		}
		if err := n.pullPeerLog(uint32(p)); err != nil {
			return err
		}
	}
	return nil
}

// catchUpScanRetries bounds the fresh re-reads a catch-up scan makes
// when a log shows interior corruption before falling back to salvage.
const catchUpScanRetries = 3

// readLogRepair reads every record currently on dev, tolerating
// interior corruption, and returns them with the offset just past the
// last one: exactly what was read, which a survivor's later appends do
// not move. Each detection is counted (log_corruption_detected) and the
// read retried against a fresh stream — a transient read-back flip
// clears on re-read. Damage that survives every retry is salvaged: the
// corrupt range is quarantined and every sound record on both sides
// kept. Records recovered from at or past the first damage offset are
// counted as repaired (repair_records_pulled) — the old
// treat-corruption-as-end-of-log policy would have silently dropped all
// of them.
func (n *Node) readLogRepair(dev wal.Device) ([]*wal.TxRecord, int64, error) {
	damagedAt := int64(-1)
	for attempt := 0; ; attempt++ {
		rc, err := dev.Open(0)
		if err != nil {
			return nil, 0, err
		}
		sc := wal.NewScanner(rc, 0)
		if attempt >= catchUpScanRetries {
			sc.Salvage()
		}
		var (
			txs     []*wal.TxRecord
			starts  []int64
			scanErr error
		)
		for {
			start := sc.Pos()
			tx, err := sc.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				scanErr = err
				break
			}
			starts = append(starts, start)
			txs = append(txs, tx)
		}
		rc.Close()
		if scanErr == nil {
			if damagedAt >= 0 {
				var repaired int64
				for _, s := range starts {
					if s >= damagedAt {
						repaired++
					}
				}
				n.stats.Add(metrics.CtrRepairRecords, repaired)
			}
			return txs, sc.Pos(), nil
		}
		var ice *wal.InteriorCorruptionError
		if !errors.As(scanErr, &ice) {
			return nil, 0, scanErr
		}
		n.stats.Add(metrics.CtrLogCorruption, 1)
		if damagedAt < 0 {
			damagedAt = ice.Offset
		}
	}
}

// CatchUp brings a (re)starting node current: the permanent image it
// mapped generally lags the per-node logs on the storage server, so
// every committed record is read back, merged into lock-sequence
// order, and applied, and the per-lock interlock state is seeded to
// match. A log found interior-corrupt is re-read and, if the damage
// persists, quarantined — the sound records around the hole still
// apply, and records this node itself lost are re-fetched here from
// the copies in every peer log. Requires PeerLogs (any store-backed
// configuration). Call it after MapRegion and before running
// transactions.
func (n *Node) CatchUp() error {
	if n.peerLogs == nil {
		return errors.New("coherency: CatchUp requires PeerLogs (store-backed configuration)")
	}
	var all []*wal.TxRecord
	for _, id := range n.clusterNodes {
		txs, end, err := n.readLogRepair(n.peerLogs(uint32(id)))
		if err != nil {
			return fmt.Errorf("coherency: catch-up scan log %d: %w", id, err)
		}
		for _, tx := range txs {
			if tx.Checkpoint {
				continue // durable marker, not a committed update
			}
			all = append(all, tx)
		}
		// Lazy bookkeeping: everything read here is consumed — up to
		// where the scan ended, not the log's size now, which may already
		// cover a record appended after the read.
		n.mu.Lock()
		if end > n.readPos[uint32(id)] {
			n.readPos[uint32(id)] = end
		}
		n.mu.Unlock()
	}
	ordered, err := merge.Order(all)
	if err != nil {
		return fmt.Errorf("coherency: catch-up merge: %w", err)
	}
	// merge.Order is a serial order that respects every lock chain, so
	// installing it in order is the whole algorithm.
	for _, rec := range ordered {
		if _, err := n.rvm.ApplyRecord(rec); err != nil {
			return fmt.Errorf("coherency: catch-up apply %d/%d: %w", rec.Node, rec.TxSeq, err)
		}
		for _, l := range rec.Locks {
			if l.Wrote {
				n.locks.MarkApplied(l.LockID, l.Seq)
			}
		}
		n.stats.Add(metrics.CtrCatchupRecords, 1)
	}
	// Re-register interest from this node's own logged history: the
	// locks it wrote under before going down are the ones whose updates
	// should route here again (eviction purged it from peers' tables).
	if n.interestOn {
		var mine []uint32
		seen := map[uint32]bool{}
		for _, rec := range ordered {
			if rec.Node != uint32(n.tr.Self()) {
				continue
			}
			for _, l := range rec.Locks {
				if l.Wrote && !seen[l.LockID] {
					seen[l.LockID] = true
					mine = append(mine, l.LockID)
				}
			}
		}
		if len(mine) > 0 {
			n.registerInterest(mine...)
		}
	}
	return nil
}

// countPages counts distinct pages overlapped by the ranges (Table 3's
// "Pages Updated"). Ranges are sorted by (region, off) at commit.
func countPages(ranges []wal.RangeRec, pageSize int) int {
	ps := uint64(pageSize)
	var count int
	haveLast := false
	var lastRegion uint32
	var lastPage uint64
	for _, r := range ranges {
		first := r.Off / ps
		last := (r.End() - 1) / ps
		for p := first; p <= last; p++ {
			if haveLast && r.Region == lastRegion && p == lastPage {
				continue
			}
			// Ranges are address-sorted, so pages repeat only as the
			// immediately preceding page.
			count++
			haveLast, lastRegion, lastPage = true, r.Region, p
		}
	}
	return count
}
