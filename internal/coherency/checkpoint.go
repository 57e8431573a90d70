package coherency

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"lbc/internal/metrics"
	"lbc/internal/netproto"
	"lbc/internal/obs"
	"lbc/internal/rvm"
)

// Online coordinated log trimming (§3.5). The prototype trimmed logs
// offline; the paper sketches the online scheme implemented here: "one
// node would checkpoint at a time, broadcasting to other nodes when
// done to inform them of their new log head."
//
// The sweep is fuzzy and incremental (rvm.IncrementalCheckpointer): the
// coordinator copies each registered segment while holding only that
// segment's lock — the acquire interlock guarantees the local image
// reflects every committed update to the segment, and the lock excludes
// concurrent writers from the bytes being copied — and a single
// in-order writer ships the copies to the permanent store behind it in
// vectored batches, so commits under other locks proceed throughout the
// image write and no lock is held across a store round trip. Only a
// short final step quiesces all locks: it writes the ranges no
// registered segment covers and the pages dirtied by commits that raced
// the sweep (one vectored write), forces the store, and appends a
// durable checkpoint marker carrying the cut-point LSN. The quiesce is
// then released — the remaining steps are pure log maintenance — and
// after a sync round that drains every node that reads the server-side
// logs, the coordinator trims its own log head online and peers
// trim theirs to the cut they recorded when the checkpoint began
// (every record below that cut committed — and was therefore applied
// at the coordinator under the relevant lock — before any page was
// swept).
//
// One checkpoint runs at a time, cluster-wide. The sweep stores a
// segment's copy after releasing the segment's lock, so within one
// checkpoint the single in-order writer is what orders a page's copies on
// the store; nothing orders the writers of two coordinators against each
// other, and a stale copy from one landing over a page the other has
// sealed — and trimmed the logs past — would lose a committed update.
// The Begin round is the mutual exclusion: it needs an ack from every
// other node, and a node refuses (Busy) from the moment it starts
// coordinating until its own sweep's writer has exited. Two nodes
// that start in the same instant refuse each other and both return
// ErrCheckpointBusy; the caller retries.
//
// Cuts are *logical* log offsets (rvm.LogCut: physical size plus bytes
// already trimmed), not raw sizes: a cut recorded for a checkpoint that
// was later refused or abandoned goes stale, and logical cuts rebase
// against whatever trims happened since (rvm.TrimLogHeadLogical), so a
// stale cut removes only records it actually covers and never ones
// appended after it was recorded.
//
// Protocol framing:
//
//	Begin{epoch}      coordinator -> peers   peers note their logical log
//	BeginAck{epoch}   peer -> coordinator    end (the cut candidate) and ack,
//	Busy{epoch}       peer -> coordinator    or refuse: they are coordinating
//	    ... fuzzy per-lock sweep, concurrent with commits ...
//	    ... quiesce: remainder sweep, dirty resweep, marker; release ...
//	Sync{epoch}       coordinator -> peers   a node that reads the server logs
//	SyncAck{epoch}    peer -> coordinator    drains them; every node acks
//	Checkpoint{epoch, lsn}  coordinator -> peers   trim to recorded cut
//	CheckpointAck{epoch}    peer -> coordinator
//
// The sync round exists because head trims move byte offsets under
// every lazy reader and delete records a lagging node may not have
// pulled yet: no log head moves until every node has drained all
// server-side logs past the cuts. A node that cannot drain withholds
// its ack, the round times out, and nothing is trimmed.

// Message codes (continuing the 0x20-0x2F coherency block; 0x26/0x27
// belong to token reclaim).
const (
	MsgCheckpoint         uint8 = 0x23 // coordinator -> peers: {epoch u64, lsn u64}
	MsgCheckpointAck      uint8 = 0x24 // peer -> coordinator: {epoch u64}
	MsgCheckpointBegin    uint8 = 0x28 // coordinator -> peers: {epoch u64}
	MsgCheckpointBeginAck uint8 = 0x29 // peer -> coordinator: {epoch u64}
	MsgCheckpointSync     uint8 = 0x2A // coordinator -> peers: {epoch u64}
	MsgCheckpointSyncAck  uint8 = 0x2B // peer -> coordinator: {epoch u64}
	MsgCheckpointBusy     uint8 = 0x2E // peer -> coordinator: {epoch u64}, Begin refused
)

// ErrCheckpointBusy reports that a checkpoint was not started because
// another one is in progress: on this node, or on a peer that refused
// the Begin round. Nothing was swept or trimmed; retry later.
var ErrCheckpointBusy = errors.New("coherency: another checkpoint is in progress")

// cutKey names one peer-side cut candidate: epochs are per-coordinator
// counters, so the coordinator id disambiguates checkpoints from
// different nodes.
type cutKey struct {
	from  netproto.NodeID
	epoch uint64
}

// ckptState tracks in-flight coordinated checkpoints: ack waiters on
// the coordinator side, recorded log cuts on the peer side.
type ckptState struct {
	mu           sync.Mutex
	epoch        uint64
	coordinating bool                            // this node has a checkpoint in progress
	refused      map[uint64]chan netproto.NodeID // begin-phase refusals
	waiters      map[uint64]chan netproto.NodeID // done-phase acks
	beginWaiters map[uint64]chan netproto.NodeID // begin-phase acks
	syncWaiters  map[uint64]chan netproto.NodeID // sync-phase acks
	cuts         map[cutKey]int64                // peer: logical log cut at Begin
}

func (n *Node) initCheckpoint() {
	n.ckpt = &ckptState{
		refused:      map[uint64]chan netproto.NodeID{},
		waiters:      map[uint64]chan netproto.NodeID{},
		beginWaiters: map[uint64]chan netproto.NodeID{},
		syncWaiters:  map[uint64]chan netproto.NodeID{},
		cuts:         map[cutKey]int64{},
	}
	n.tr.Handle(MsgCheckpoint, n.onCheckpoint)
	n.tr.Handle(MsgCheckpointAck, n.onCheckpointAck)
	n.tr.Handle(MsgCheckpointBegin, n.onCheckpointBegin)
	n.tr.Handle(MsgCheckpointBeginAck, n.onCheckpointBeginAck)
	n.tr.Handle(MsgCheckpointSync, n.onCheckpointSync)
	n.tr.Handle(MsgCheckpointSyncAck, n.onCheckpointSyncAck)
	n.tr.Handle(MsgCheckpointBusy, n.onCheckpointBusy)
}

// sweepRange is one byte range the quiesced remainder sweep must copy.
type sweepRange struct {
	region rvm.RegionID
	off, n uint64
}

// CoordinatedCheckpoint checkpoints the cluster and trims every node's
// log online. lockIDs must cover every segment that receives writes
// (typically all registered locks). Unlike the original stop-the-world
// pass, the image sweep runs concurrently with commits: each registered
// segment is copied under its own lock only, and all locks are held
// together just for the short sealing step at the end.
func (n *Node) CoordinatedCheckpoint(lockIDs []uint32, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	peers := n.tr.Peers()

	n.ckpt.mu.Lock()
	if n.ckpt.coordinating {
		n.ckpt.mu.Unlock()
		return ErrCheckpointBusy
	}
	n.ckpt.coordinating = true
	n.ckpt.epoch++
	epoch := n.ckpt.epoch
	n.ckpt.mu.Unlock()
	// Registered first so it runs last: this node refuses other
	// coordinators until its sweep's writer has exited (AbortConcurrent
	// below), after which none of its copies can still reach the store.
	defer func() {
		n.ckpt.mu.Lock()
		n.ckpt.coordinating = false
		n.ckpt.mu.Unlock()
	}()

	// Phase 1: peers record their current logical log end as the cut
	// they will trim to. Every record below a peer's cut committed
	// before any page was swept, so the per-lock sweeps below are
	// guaranteed to observe it (interlock) — which is what makes the cut
	// safe to trim. Logical cuts stay valid even if another coordinator
	// trims the peer's log before our Checkpoint message arrives.
	traced := n.trace.Enabled()
	endBegin := n.ckptSpan(traced, epoch, obs.SpanCkptBegin)
	var beginMsg [8]byte
	binary.LittleEndian.PutUint64(beginMsg[:], epoch)
	if len(peers) > 0 {
		if err := n.ckptRound(peers, MsgCheckpointBegin, beginMsg[:], n.ckpt.beginWaiters, epoch, deadline); err != nil {
			return fmt.Errorf("coherency: checkpoint begin: %w", err)
		}
	}
	endBegin(0, int64(len(peers)))

	ckpt := n.rvm.NewIncrementalCheckpointer(n.pageSize)
	if err := ckpt.BeginConcurrent(); err != nil {
		return fmt.Errorf("coherency: checkpoint begin sweep: %w", err)
	}
	// Abandon dirty tracking and stop the sweep's writer on any error
	// path (no-op after a successful FinishQuiesced).
	defer ckpt.AbortConcurrent()

	// Both phases take the locks in ascending order.
	sorted := append([]uint32(nil), lockIDs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

	// Phase 2: fuzzy sweep — copy each registered segment while holding
	// only its lock, and only for the copy: the checkpointer's writer
	// stores the copies behind us in batches. Commits under the other
	// locks proceed concurrently.
	endSweep := n.ckptSpan(traced, epoch, obs.SpanCkptSweep)
	var swept int64
	for _, id := range sorted {
		n.mu.Lock()
		seg, ok := n.segments[id]
		n.mu.Unlock()
		if !ok {
			continue // no registered scope: swept under the quiesce below
		}
		endLock := n.ckptSpan(traced, epoch, obs.SpanCkptSweepLock)
		tx := n.Begin(rvm.NoRestore)
		err := tx.Acquire(id)
		if err == nil {
			err = ckpt.SweepRange(seg.Region, seg.Off, seg.Len)
		}
		// Release the lock whether or not the sweep succeeded: a failed
		// acquire holds nothing, a failed sweep must not leak the lock.
		_ = tx.Abort()
		if err != nil {
			return fmt.Errorf("coherency: checkpoint sweep lock %d: %w", id, err)
		}
		endLock(id, int64(seg.Len))
		swept += int64(seg.Len)
	}
	// Everything copied so far reaches the store before any lock is
	// retaken, so the quiesce below writes only what raced the sweep.
	if err := ckpt.Drain(); err != nil {
		return fmt.Errorf("coherency: checkpoint sweep write: %w", err)
	}
	endSweep(0, swept)

	// Phase 3: seal under a full quiesce. The abort is registered
	// *before* the acquire loop so a failed acquire releases the locks
	// taken by earlier iterations (a mid-loop return used to leak them).
	quiesceStart := time.Now()
	qtx := n.Begin(rvm.NoRestore)
	defer qtx.Abort()
	for _, id := range sorted {
		if err := qtx.Acquire(id); err != nil {
			return fmt.Errorf("coherency: checkpoint acquire lock %d: %w", id, err)
		}
	}
	endSeal := n.ckptSpan(traced, epoch, obs.SpanCkptSeal)
	// Bytes no registered segment covers were not swept under a lock;
	// queue them now that all writers are excluded, straight from the
	// mapped image. (With no registered segments this degenerates to the
	// full stop-the-world image write.)
	for _, sr := range n.uncoveredRanges(sorted) {
		if err := ckpt.SweepQuiesced(sr.region, sr.off, sr.n); err != nil {
			return fmt.Errorf("coherency: checkpoint remainder sweep: %w", err)
		}
	}
	// Re-copy pages dirtied by commits that raced the per-lock sweeps;
	// they and the remainder above go out as one vectored write.
	resweeped, err := ckpt.ResweepDirty()
	if err != nil {
		return fmt.Errorf("coherency: checkpoint resweep: %w", err)
	}
	// Force the images, append + sync the durable marker. If we crash
	// after this point recovery starts at the marker, before it at the
	// previous start point — either way the images and log agree.
	lsn, cut, err := ckpt.FinishQuiesced()
	if err != nil {
		return fmt.Errorf("coherency: checkpoint finish: %w", err)
	}
	endSeal(0, int64(resweeped))
	// The marker is durable and cut is a stable logical offset: the
	// locks are no longer needed. Release the quiesce before the network
	// rounds below, so a slow or dead peer stalls only this checkpoint —
	// not every commit in the cluster for the full caller timeout. (The
	// deferred Abort above remains as a no-op backstop for error paths.)
	_ = qtx.Abort()
	quiesce := time.Since(quiesceStart)
	n.stats.Add(metrics.CtrCkptQuiesceNS, quiesce.Nanoseconds())
	if traced {
		n.emitCkptSpan(obs.SpanCkptQuiesce, epoch, 0, quiesceStart, int64(len(sorted)))
	}

	// Phase 4: drain lazy consumers. Head trims move byte offsets under
	// every reader of these logs and delete records a lagging node may
	// not have pulled yet, so each node that reads them — this one
	// included — drains every server-side log before any head moves. A
	// node that cannot drain withholds its ack and the checkpoint aborts
	// without trimming anything; a later attempt retries. A node that
	// never reads the server-side logs (eager propagation without the
	// pull backstop) has nothing to drain and acks immediately: the
	// Begin-cut interlock argument already covers its applied state.
	endSync := n.ckptSpan(traced, epoch, obs.SpanCkptSync)
	if err := n.drainPeerLogs(); err != nil {
		return fmt.Errorf("coherency: checkpoint drain: %w", err)
	}
	if len(peers) > 0 {
		if err := n.ckptRound(peers, MsgCheckpointSync, beginMsg[:], n.ckpt.syncWaiters, epoch, deadline); err != nil {
			return fmt.Errorf("coherency: checkpoint sync: %w", err)
		}
	}
	endSync(0, int64(len(peers)))

	// Trim our own log head past the marker: every record below it is in
	// the permanent images, and every lazy reader is past it after the
	// sync round. Commits racing the trim land above the cut and
	// survive; devices without an atomic HeadTrimmer rewrite safely
	// under rvm's log latch, so no quiesce is needed here.
	endTrim := n.ckptSpan(traced, epoch, obs.SpanCkptTrim)
	if err := n.rvm.TrimLogHeadLogical(cut); err != nil {
		return fmt.Errorf("coherency: checkpoint trim: %w", err)
	}

	// Phase 5: peers trim to their recorded cuts.
	if len(peers) > 0 {
		var doneMsg [16]byte
		binary.LittleEndian.PutUint64(doneMsg[:8], epoch)
		binary.LittleEndian.PutUint64(doneMsg[8:], uint64(lsn))
		if err := n.ckptRound(peers, MsgCheckpoint, doneMsg[:], n.ckpt.waiters, epoch, deadline); err != nil {
			return fmt.Errorf("coherency: checkpoint commit: %w", err)
		}
	}
	endTrim(0, cut)
	return nil
}

// noSpan is what ckptSpan returns with tracing off.
var noSpan = func(uint32, int64) {}

// ckptSpan starts timing one phase of the checkpoint this node
// coordinates; calling the result emits the span, stamped with the
// coordinator's id and the checkpoint epoch. With tracing off neither
// end reads the clock.
func (n *Node) ckptSpan(traced bool, epoch uint64, name string) func(lock uint32, count int64) {
	if !traced {
		return noSpan
	}
	start := time.Now()
	return func(lock uint32, count int64) { n.emitCkptSpan(name, epoch, lock, start, count) }
}

// emitCkptSpan records one checkpoint span that began at start and ends
// now.
func (n *Node) emitCkptSpan(name string, epoch uint64, lock uint32, start time.Time, count int64) {
	n.trace.Emit(obs.Span{
		Name: name, Node: uint32(n.tr.Self()), Tx: epoch, Lock: lock,
		Start: start.UnixNano(), Dur: time.Since(start).Nanoseconds(), N: count,
	})
}

// ckptRound broadcasts one checkpoint protocol message and waits for
// every peer's ack, registered in the given waiter map under epoch. A
// peer's Busy reply (only Begin is ever refused) ends the round at once
// with ErrCheckpointBusy.
func (n *Node) ckptRound(peers []netproto.NodeID, typ uint8, payload []byte,
	waiters map[uint64]chan netproto.NodeID, epoch uint64, deadline time.Time) error {
	acks := make(chan netproto.NodeID, len(peers))
	refused := make(chan netproto.NodeID, len(peers))
	n.ckpt.mu.Lock()
	waiters[epoch] = acks
	n.ckpt.refused[epoch] = refused
	n.ckpt.mu.Unlock()
	defer func() {
		n.ckpt.mu.Lock()
		delete(waiters, epoch)
		delete(n.ckpt.refused, epoch)
		n.ckpt.mu.Unlock()
	}()
	for _, p := range peers {
		if err := n.tr.Send(p, typ, payload); err != nil {
			return fmt.Errorf("notify %d: %w", p, err)
		}
	}
	need := map[netproto.NodeID]bool{}
	for _, p := range peers {
		need[p] = true
	}
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	for len(need) > 0 {
		select {
		case from := <-acks:
			delete(need, from)
		case from := <-refused:
			return fmt.Errorf("node %d: %w", from, ErrCheckpointBusy)
		case <-timer.C:
			return fmt.Errorf("epoch %d: %d peers did not ack", epoch, len(need))
		case <-n.done:
			return errors.New("node closed during checkpoint")
		}
	}
	return nil
}

// uncoveredRanges returns, per mapped region, the byte ranges not
// covered by any of the given locks' registered segments. These ranges
// were not swept under a lock and must be copied under the quiesce.
func (n *Node) uncoveredRanges(lockIDs []uint32) []sweepRange {
	n.mu.Lock()
	segs := make([]Segment, 0, len(lockIDs))
	for _, id := range lockIDs {
		if s, ok := n.segments[id]; ok {
			segs = append(segs, s)
		}
	}
	n.mu.Unlock()

	var out []sweepRange
	for _, rid := range n.rvm.RegionIDs() {
		reg := n.rvm.Region(rid)
		if reg == nil {
			continue
		}
		size := uint64(reg.Size())
		var iv [][2]uint64
		for _, s := range segs {
			if s.Region != rid || s.Len == 0 || s.Off >= size {
				continue
			}
			hi := s.Off + s.Len
			if hi > size {
				hi = size
			}
			iv = append(iv, [2]uint64{s.Off, hi})
		}
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		var at uint64
		for _, p := range iv {
			if p[0] > at {
				out = append(out, sweepRange{region: rid, off: at, n: p[0] - at})
			}
			if p[1] > at {
				at = p[1]
			}
		}
		if at < size {
			out = append(out, sweepRange{region: rid, off: at, n: size - at})
		}
	}
	return out
}

// onCheckpointBegin runs at a peer: record the current logical log end
// as the cut this checkpoint will trim to. Records below it committed
// before the coordinator's sweep started, so the sweep observes them;
// records appended later may have raced the sweep and must survive in
// the log. The cut is logical (rvm.LogCut), so any trim of our log
// between now and the Checkpoint message cannot shift it onto — and
// silently delete — those later records. A node that is coordinating a
// checkpoint of its own refuses instead (see the protocol notes at the top of this file).
func (n *Node) onCheckpointBegin(from netproto.NodeID, payload []byte) {
	if len(payload) != 8 {
		return
	}
	n.ckpt.mu.Lock()
	busy := n.ckpt.coordinating
	n.ckpt.mu.Unlock()
	if busy {
		// Our own sweep's writer may still hold copies: a second
		// coordinator sealing and trimming now could have them land over
		// its sealed pages. Refuse; nothing is recorded.
		_ = n.tr.Send(from, MsgCheckpointBusy, payload)
		return
	}
	epoch := binary.LittleEndian.Uint64(payload)
	cut, err := n.rvm.LogCut()
	if err != nil {
		// Unknown size: record a zero cut, i.e. trim nothing. The
		// checkpoint still completes; this peer just keeps its log.
		n.stats.Add(metrics.CtrCkptErrors, 1)
		cut = 0
	}
	n.ckpt.mu.Lock()
	for k := range n.ckpt.cuts {
		if k.from == from {
			delete(n.ckpt.cuts, k) // only the newest epoch per coordinator matters
		}
	}
	n.ckpt.cuts[cutKey{from: from, epoch: epoch}] = cut
	n.ckpt.mu.Unlock()
	_ = n.tr.Send(from, MsgCheckpointBeginAck, payload)
}

// onCheckpointBeginAck runs at the coordinator.
func (n *Node) onCheckpointBeginAck(from netproto.NodeID, payload []byte) {
	if len(payload) != 8 {
		return
	}
	n.ckptAck(from, binary.LittleEndian.Uint64(payload), n.ckpt.beginWaiters)
}

// onCheckpointBusy runs at the coordinator: a peer refused the Begin.
func (n *Node) onCheckpointBusy(from netproto.NodeID, payload []byte) {
	if len(payload) != 8 {
		return
	}
	n.ckptAck(from, binary.LittleEndian.Uint64(payload), n.ckpt.refused)
}

// onCheckpoint runs at a peer: the coordinator's images now reflect
// every record below the cut recorded at Begin, so trim the local log
// head to that cut. Commits that raced the sweep sit above the cut and
// survive in the tail; the logical trim rebases the cut against any
// trim applied since Begin.
func (n *Node) onCheckpoint(from netproto.NodeID, payload []byte) {
	if len(payload) != 16 {
		return
	}
	epoch := binary.LittleEndian.Uint64(payload[:8])
	n.ckpt.mu.Lock()
	cut, ok := n.ckpt.cuts[cutKey{from: from, epoch: epoch}]
	delete(n.ckpt.cuts, cutKey{from: from, epoch: epoch})
	n.ckpt.mu.Unlock()
	if ok && cut > 0 {
		if err := n.rvm.TrimLogHeadLogical(cut); err != nil {
			n.stats.Add(metrics.CtrCkptErrors, 1)
			return // no ack: the coordinator times out and reports
		}
	}
	var ack [8]byte
	binary.LittleEndian.PutUint64(ack[:], epoch)
	_ = n.tr.Send(from, MsgCheckpointAck, ack[:])
}

// onCheckpointSync runs at a peer after the coordinator's marker is
// durable and before any log head moves: drain every server-side log
// this node reads lazily, so its saved read positions — and its
// pending-record backlog — are past any cut about to be trimmed. The
// ack is withheld on a failed drain; the coordinator then times out
// and no log is trimmed, leaving a later checkpoint free to retry.
func (n *Node) onCheckpointSync(from netproto.NodeID, payload []byte) {
	if len(payload) != 8 {
		return
	}
	if err := n.drainPeerLogs(); err != nil {
		n.stats.Add(metrics.CtrCkptErrors, 1)
		return // no ack: the coordinator times out and reports
	}
	_ = n.tr.Send(from, MsgCheckpointSyncAck, payload)
}

// onCheckpointSyncAck runs at the coordinator.
func (n *Node) onCheckpointSyncAck(from netproto.NodeID, payload []byte) {
	if len(payload) != 8 {
		return
	}
	n.ckptAck(from, binary.LittleEndian.Uint64(payload), n.ckpt.syncWaiters)
}

// onCheckpointAck runs at the coordinator.
func (n *Node) onCheckpointAck(from netproto.NodeID, payload []byte) {
	if len(payload) != 8 {
		return
	}
	n.ckptAck(from, binary.LittleEndian.Uint64(payload), n.ckpt.waiters)
}

func (n *Node) ckptAck(from netproto.NodeID, epoch uint64, waiters map[uint64]chan netproto.NodeID) {
	n.ckpt.mu.Lock()
	ch := waiters[epoch]
	n.ckpt.mu.Unlock()
	if ch != nil {
		select {
		case ch <- from:
		default:
		}
	}
}
