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
// Protocol framing: two codes. A request names its phase; a reply
// echoes the phase and carries a status.
//
//	Checkpoint{Begin, epoch}      coordinator -> peers    peers note their logical log end
//	Reply{Begin, status, epoch}   peer -> coordinator     (the cut candidate) and ack: ok,
//	                                                      or reads (ok, and they read the
//	                                                      server logs); or refuse: busy,
//	                                                      they are coordinating
//	    ... fuzzy per-lock sweep, concurrent with commits ...
//	    ... quiesce: remainder sweep, dirty resweep, marker; release ...
//	Checkpoint{Sync, epoch}       coordinator -> readers  readers drain the server logs
//	Reply{Sync, ok, epoch}        reader -> coordinator
//	Checkpoint{Trim, epoch}       coordinator -> peers    trim to the recorded cut
//	Reply{Trim, ok, epoch}        peer -> coordinator
//
// The sync round exists because head trims move byte offsets under
// every reader of the server-side logs and delete records a lagging
// node may not have pulled yet: no log head moves until every node that
// reads those logs has drained them past the cuts. Who reads is learned
// from the Begin replies, not from the coordinator's own configuration
// (nodes of one cluster may be configured differently): the coordinator
// drains its own reads, sends Sync only to the peers that replied
// reads, and skips the round when there are none. A reader that cannot
// drain withholds its reply, the round times out, and nothing is
// trimmed.

// Message codes (continuing the 0x20-0x2F coherency block; 0x26/0x27
// belong to token reclaim).
const (
	MsgCheckpoint      uint8 = 0x23 // coordinator -> peer: {phase u8, epoch u64}
	MsgCheckpointReply uint8 = 0x24 // peer -> coordinator: {phase u8, status u8, epoch u64}
)

// Checkpoint phases, the first byte of both frames.
const (
	ckptBegin uint8 = iota + 1 // peers record their cut
	ckptSync                   // readers of the server-side logs drain them
	ckptTrim                   // peers trim to their cut
)

// Reply statuses. Busy and reads answer only a Begin.
const (
	ckptOK    uint8 = iota
	ckptBusy        // refused: the peer is coordinating a checkpoint
	ckptReads       // ok, and the peer reads the server-side logs
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

// roundKey names one round a coordinator waits on. The phase is part of
// the key so a late reply from an earlier round never counts in a later
// one.
type roundKey struct {
	phase uint8
	epoch uint64
}

// ckptReply is one peer's reply to a round.
type ckptReply struct {
	from   netproto.NodeID
	status uint8
}

// ckptState tracks in-flight coordinated checkpoints: reply waiters on
// the coordinator side, recorded log cuts on the peer side.
type ckptState struct {
	mu           sync.Mutex
	epoch        uint64
	coordinating bool                        // this node has a checkpoint in progress
	waiters      map[roundKey]chan ckptReply // coordinator: rounds in flight
	cuts         map[cutKey]int64            // peer: logical log cut at Begin
}

func (n *Node) initCheckpoint() {
	n.ckpt = &ckptState{
		waiters: map[roundKey]chan ckptReply{},
		cuts:    map[cutKey]int64{},
	}
	n.tr.Handle(MsgCheckpoint, n.onCheckpoint)
	n.tr.Handle(MsgCheckpointReply, n.onCheckpointReply)
}

// ckptRequest encodes a MsgCheckpoint payload.
func ckptRequest(phase uint8, epoch uint64) []byte {
	return binary.LittleEndian.AppendUint64([]byte{phase}, epoch)
}

// ckptReplyFrame encodes a MsgCheckpointReply payload.
func ckptReplyFrame(phase, status uint8, epoch uint64) []byte {
	return binary.LittleEndian.AppendUint64([]byte{phase, status}, epoch)
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
	readers, err := n.ckptRound(peers, ckptBegin, epoch, deadline)
	if err != nil {
		return fmt.Errorf("coherency: checkpoint begin: %w", err)
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
	_, cut, err := ckpt.FinishQuiesced()
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

	// Phase 4: drain the readers of the server-side logs. Head trims move
	// byte offsets under every reader of these logs and delete records a
	// lagging node may not have pulled yet, so each node that reads them
	// — this one, and every peer whose Begin reply said so — drains
	// every server-side log before any head moves. A reader that cannot
	// drain withholds its reply and the checkpoint aborts without
	// trimming anything; a later attempt retries. A node that never reads
	// those logs (eager propagation without the pull backstop) has
	// nothing to drain and is not asked: the Begin-cut interlock argument
	// already covers its applied state. With no reader the round sends
	// nothing.
	endSync := n.ckptSpan(traced, epoch, obs.SpanCkptSync)
	drained := int64(len(readers))
	if n.readsPeerLogs() {
		drained++
	}
	if err := n.drainPeerLogs(); err != nil {
		return fmt.Errorf("coherency: checkpoint drain: %w", err)
	}
	if _, err := n.ckptRound(readers, ckptSync, epoch, deadline); err != nil {
		return fmt.Errorf("coherency: checkpoint sync: %w", err)
	}
	endSync(0, drained)

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
	if _, err := n.ckptRound(peers, ckptTrim, epoch, deadline); err != nil {
		return fmt.Errorf("coherency: checkpoint commit: %w", err)
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

// ckptRound sends one checkpoint request to peers and waits for every
// one's reply, registered under (phase, epoch). It returns the peers
// that replied reads. A busy reply (only Begin is ever refused) ends the
// round at once with ErrCheckpointBusy. With no peers it sends nothing.
func (n *Node) ckptRound(peers []netproto.NodeID, phase uint8, epoch uint64, deadline time.Time) ([]netproto.NodeID, error) {
	key := roundKey{phase: phase, epoch: epoch}
	replies := make(chan ckptReply, len(peers))
	n.ckpt.mu.Lock()
	n.ckpt.waiters[key] = replies
	n.ckpt.mu.Unlock()
	defer func() {
		n.ckpt.mu.Lock()
		delete(n.ckpt.waiters, key)
		n.ckpt.mu.Unlock()
	}()
	req := ckptRequest(phase, epoch)
	need := make(map[netproto.NodeID]bool, len(peers))
	for _, p := range peers {
		if err := n.tr.Send(p, MsgCheckpoint, req); err != nil {
			return nil, fmt.Errorf("notify %d: %w", p, err)
		}
		need[p] = true
	}
	var readers []netproto.NodeID
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	for len(need) > 0 {
		select {
		case r := <-replies:
			if !need[r.from] {
				continue
			}
			switch r.status {
			case ckptBusy:
				return nil, fmt.Errorf("node %d: %w", r.from, ErrCheckpointBusy)
			case ckptReads:
				readers = append(readers, r.from)
			}
			delete(need, r.from)
		case <-timer.C:
			return nil, fmt.Errorf("epoch %d: %d peers did not ack", epoch, len(need))
		case <-n.done:
			return nil, errors.New("node closed during checkpoint")
		}
	}
	return readers, nil
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

// onCheckpoint runs at a peer and answers one request with one reply,
// or with none when the request fails.
//
// Begin: record the current logical log end as the cut this checkpoint
// will trim to. Records below it committed before the coordinator's
// sweep started, so the sweep observes them; records appended later may
// have raced the sweep and must survive in the log. The cut is logical
// (rvm.LogCut), so any trim of our log between now and the Trim request
// cannot shift it onto — and silently delete — those later records. A
// node that is coordinating a checkpoint of its own refuses instead (see
// the protocol notes at the top of this file).
//
// Sync: the coordinator's marker is durable and no log head has moved
// yet: drain every server-side log this node reads, so its saved read
// positions — and its pending-record backlog — are past any cut about
// to be trimmed.
//
// Trim: the coordinator's images now reflect every record below the cut
// recorded at Begin, so trim the local log head to that cut. Commits
// that raced the sweep sit above the cut and survive in the tail; the
// logical trim rebases the cut against any trim applied since Begin.
//
// A failed drain or trim withholds the reply: the coordinator times out
// and reports, and no log head moves (Sync) or the next checkpoint
// retries (Trim).
func (n *Node) onCheckpoint(from netproto.NodeID, payload []byte) {
	if len(payload) != 9 {
		n.decodeError(from)
		return
	}
	phase, epoch := payload[0], binary.LittleEndian.Uint64(payload[1:])
	status := ckptOK
	switch phase {
	case ckptBegin:
		n.ckpt.mu.Lock()
		busy := n.ckpt.coordinating
		n.ckpt.mu.Unlock()
		if busy {
			// Our own sweep's writer may still hold copies: a second
			// coordinator sealing and trimming now could have them land
			// over its sealed pages. Refuse; nothing is recorded.
			status = ckptBusy
			break
		}
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
		if n.readsPeerLogs() {
			status = ckptReads
		}
	case ckptSync:
		if err := n.drainPeerLogs(); err != nil {
			n.stats.Add(metrics.CtrCkptErrors, 1)
			return
		}
	case ckptTrim:
		n.ckpt.mu.Lock()
		cut, ok := n.ckpt.cuts[cutKey{from: from, epoch: epoch}]
		delete(n.ckpt.cuts, cutKey{from: from, epoch: epoch})
		n.ckpt.mu.Unlock()
		if ok && cut > 0 {
			if err := n.rvm.TrimLogHeadLogical(cut); err != nil {
				n.stats.Add(metrics.CtrCkptErrors, 1)
				return
			}
		}
	default:
		n.decodeError(from)
		return
	}
	_ = n.tr.Send(from, MsgCheckpointReply, ckptReplyFrame(phase, status, epoch))
}

// onCheckpointReply runs at the coordinator: hand the reply to the
// round waiting on its (phase, epoch), if any.
func (n *Node) onCheckpointReply(from netproto.NodeID, payload []byte) {
	if len(payload) != 10 {
		n.decodeError(from)
		return
	}
	phase, status := payload[0], payload[1]
	if phase < ckptBegin || phase > ckptTrim || status > ckptReads ||
		(status != ckptOK && phase != ckptBegin) {
		n.decodeError(from)
		return
	}
	key := roundKey{phase: phase, epoch: binary.LittleEndian.Uint64(payload[2:])}
	n.ckpt.mu.Lock()
	ch := n.ckpt.waiters[key]
	n.ckpt.mu.Unlock()
	if ch != nil {
		select {
		case ch <- ckptReply{from: from, status: status}:
		default:
		}
	}
}
