package coherency

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"lbc/internal/bufpool"
	"lbc/internal/metrics"
	"lbc/internal/netproto"
	"lbc/internal/obs"
	"lbc/internal/wal"
)

// The one way a record leaves a node. Eager broadcasts (and the DSM
// baseline's BroadcastRecord) are queued into bounded per-peer send
// windows, and a dedicated sender goroutine per peer ships one batch
// frame per drain: a peer that was idle gets a batch of one, a busy one
// gets every record committed while its previous frame was on the
// wire. Batch frames carry format-tagged records (compressed or
// standard headers), so the per-record fallback for wal.ErrTooLarge and
// the Standard wire format need no second frame type, and whole frames
// additionally ship DEFLATE-compressed (MsgUpdateBatchC) when that saves
// wire bytes. Token piggyback (piggyback.go) carries the same tagged
// records in the same count/length framing.
//
// Ordering: records enter each peer's queue in commit order, before
// their locks are released (Tx.Commit calls broadcast before Release),
// and a drain preserves queue order within the frame. The receiver
// decodes a frame's records in order and hands them to the apply
// pipeline, whose per-lock sequence interlock is the actual ordering
// authority — cross-frame or cross-peer reordering parks records until
// their predecessors arrive.
//
// Flow control: the per-peer window (Options.sendWindow) caps bytes
// queued plus in flight. A full window blocks the committing
// transaction inside broadcast — the same backpressure shape as
// wal.GroupWriter's bounded queue — but only against the slow peer;
// frames to every other peer keep flowing on their own senders. When
// the pull backstop is configured, a peer that stays stalled past
// Options.sendStallTimeout is downgraded: its queued backlog is
// dropped (counted slow_peer_drops), as is the committing record if the
// frame on the wire still leaves no room, and the records reach it
// through the server-log pull at its next acquire, exactly as after a
// chaos drop.
//
// Buffer ownership (the zero-copy chain): encodeTaggedRecord writes the
// format tag and the record into one pooled buffer; that buffer is
// shared by every targeted peer's queue behind a refcount and recycles
// when the last peer's frame has been sent. A drain builds the standard
// batch-frame layout as a vector — one pooled skeleton holding the
// count and length words, aliased by the parts list. A frame of one
// record is the same bytes for every peer, so its compressed form is
// computed once, by whichever sender ships it first, and kept beside
// the record (sharedPayload.solo) for the others; it recycles with the
// record. A frame of several records is deflated by its own sender into
// one pooled output frame. Either way the frame goes to netproto.SendVec
// — compressed as one part, plain as the vector itself — so membership's
// fence adds its epoch as one more part instead of copying the frame,
// and the plain TCP path is scatter-gather all the way to the socket.

// Per-record format tags inside a batch frame.
const (
	batchFmtCompressed byte = 0
	batchFmtStandard   byte = 1
)

const (
	// compressMinBytes is the size heuristic's floor: frames smaller
	// than this ship plain (DEFLATE overhead dominates tiny frames).
	compressMinBytes = 64
	// compressMinSaving is the fraction of the raw size a compressed
	// frame must save to be worth shipping (1/8): deflate slightly
	// expands incompressible payloads, and a marginal win is not worth
	// the receiver's inflate.
	compressMinSavingDiv = 8
	// maxCompressedBatchRaw bounds the declared inflated size of a
	// received compressed frame. Far above any real batch (windows are
	// ~1 MiB), and it caps the amplification a hostile declared length
	// could ask for; the inflater additionally grows its buffer only as
	// decompressed bytes actually materialize.
	maxCompressedBatchRaw = 1 << 28
)

// errBadBatchC reports a structurally invalid compressed batch frame
// (short header, absurd declared size, or a stream that does not
// inflate to exactly the declared bytes).
var errBadBatchC = errors.New("coherency: malformed compressed batch frame")

// errBadTag reports a tagged record that is empty or carries an unknown
// format tag.
var errBadTag = errors.New("coherency: bad record format tag")

// sharedPayload is one encoded, format-tagged record shared by every
// targeted peer's send queue; the pooled buffers recycle when the last
// holder releases it.
type sharedPayload struct {
	buf  []byte
	refs atomic.Int32

	// solo is the MsgUpdateBatchC payload of the frame that carries
	// this record alone. The first sender to ship that frame deflates
	// it and every other sender sends the same bytes; nil when that
	// frame ships plain.
	soloOnce sync.Once
	solo     []byte
}

func (sp *sharedPayload) release() {
	if sp.refs.Add(-1) == 0 {
		bufpool.Put(sp.buf)
		if sp.solo != nil {
			bufpool.Put(sp.solo)
		}
	}
}

// soloFrame returns the compressed payload of the one-record frame
// holding sp, or nil when that frame ships plain; the bytes are shared
// and read-only. parts is the frame's standard layout, and the
// compress-or-skip decision is made once, by the heuristic ship uses
// for every frame.
func (sp *sharedPayload) soloFrame(n *Node, parts [][]byte, rawSize int) []byte {
	sp.soloOnce.Do(func() { sp.solo = n.deflateFrame(parts, rawSize) })
	return sp.solo
}

// deflateFrame returns the MsgUpdateBatchC payload of the frame whose
// standard layout is parts (rawSize bytes) in a pooled buffer, or nil
// when the frame is too small or DEFLATE saves too little to be worth
// shipping compressed.
func (n *Node) deflateFrame(parts [][]byte, rawSize int) []byte {
	if rawSize < compressMinBytes {
		return nil
	}
	frame := bufpool.Get(4 + rawSize)
	var hdr [4]byte
	putU32(hdr[:], uint32(rawSize))
	frame = append(frame, hdr[:]...)
	frame = wal.CompressChunks(frame, parts...)
	n.stats.Add(metrics.CtrFramesDeflated, 1)
	if len(frame) > rawSize-rawSize/compressMinSavingDiv {
		bufpool.Put(frame)
		return nil
	}
	return frame
}

// encodeTaggedRecord encodes rec directly behind its one-byte batch
// format tag: tag and record share a single pooled buffer, so nothing
// is re-copied between encode and the per-peer send queues.
func (n *Node) encodeTaggedRecord(rec *wal.TxRecord) []byte {
	if n.wire != Standard {
		b := append(bufpool.Get(1+wal.CompressedSize(rec)), batchFmtCompressed)
		msg, err := wal.AppendCompressed(b, rec)
		if err == nil {
			return msg
		}
		bufpool.Put(b)
		n.stats.Add(metrics.CtrCompressFallbacks, 1)
	}
	b := append(bufpool.Get(1+wal.StandardSize(rec)), batchFmtStandard)
	return wal.AppendStandard(b, rec)
}

// peerSender owns one peer's bounded send window: a queue of shared
// record payloads plus the bytes of any frame currently being written,
// together capped at Node.sendWindow. One goroutine drains the queue,
// so a peer whose transport writes stall delays only its own frames.
type peerSender struct {
	n    *Node
	peer netproto.NodeID

	mu       sync.Mutex
	wake     chan struct{} // closed+replaced on every state change
	q        []*sharedPayload
	inFlight int // bytes queued or being written, charged against the window
	closed   bool
}

// notifyLocked wakes everyone waiting on this sender's state (the run
// loop and blocked enqueuers). The close+replace idiom instead of a
// sync.Cond because the slow-peer downgrade needs a timed wait.
func (ps *peerSender) notifyLocked() {
	close(ps.wake)
	ps.wake = make(chan struct{})
}

// senderFor returns the sender for p, starting it on first use, or nil
// when the node is shutting down.
func (n *Node) senderFor(p netproto.NodeID) *peerSender {
	n.psMu.Lock()
	defer n.psMu.Unlock()
	if n.psClosed {
		return nil
	}
	ps, ok := n.peerSenders[p]
	if !ok {
		ps = &peerSender{n: n, peer: p, wake: make(chan struct{})}
		n.peerSenders[p] = ps
		n.wg.Add(1)
		go ps.run()
	}
	return ps
}

// closeSenders marks every sender closed (they drain their queues and
// exit; Node.Close's wg.Wait observes that) and stops new ones from
// starting. Called once from Close, inside closeOne.
func (n *Node) closeSenders() {
	n.psMu.Lock()
	n.psClosed = true
	senders := make([]*peerSender, 0, len(n.peerSenders))
	for _, ps := range n.peerSenders {
		senders = append(senders, ps)
	}
	n.psMu.Unlock()
	for _, ps := range senders {
		ps.mu.Lock()
		ps.closed = true
		ps.notifyLocked()
		ps.mu.Unlock()
	}
}

// broadcast encodes rec once in the node's wire format and admits it to
// the send window of every peer that has any of the modified regions
// mapped, blocking (backpressure into the committing transaction) while
// a window is full.
func (n *Node) broadcast(rec *wal.TxRecord) {
	peers := n.peersForRecord(rec)
	if len(peers) == 0 {
		return
	}
	sp := &sharedPayload{buf: n.encodeTaggedRecord(rec)}
	sp.refs.Store(int32(len(peers)))
	if n.trace.Enabled() {
		// The record's network phase starts here; the per-peer frame
		// cost shows up as net.batch_frame spans from the senders.
		n.trace.Emit(obs.Span{
			Name: obs.SpanBroadcast, Node: rec.Node, Tx: rec.TxSeq,
			Start: time.Now().UnixNano(),
			N:     int64(len(sp.buf)) * int64(len(peers)),
		})
	}
	for _, p := range peers {
		ps := n.senderFor(p)
		if ps == nil {
			sp.release() // shutting down
			continue
		}
		ps.enqueue(sp)
	}
}

// enqueue admits sp to the peer's queue, blocking while the send window
// is full. A payload always enters an empty window even if it alone
// exceeds it — an oversized record must not deadlock. When the wait
// outlives the node's stall timeout and the pull backstop is
// configured, the peer is downgraded: its queued backlog is dropped —
// and sp with it if the frame still on the wire leaves no room — and it
// re-fetches those records from the server logs at its next acquire
// (the exact recovery path chaos drops exercise), so one wedged peer
// costs each commit at most one stall timeout. Without the
// backstop a drop would lose the records forever, so the enqueue keeps
// blocking — memory stays bounded by the window either way.
func (ps *peerSender) enqueue(sp *sharedPayload) {
	n := ps.n
	size := len(sp.buf)
	canDrop := n.pullStall && n.peerLogs != nil
	var stallStart time.Time
	var timer *time.Timer
	var timeout <-chan time.Time
	ps.mu.Lock()
	for ps.inFlight > 0 && ps.inFlight+size > n.sendWindow && !ps.closed {
		if stallStart.IsZero() {
			stallStart = time.Now()
			n.stats.Add(metrics.CtrSendStalls, 1)
			if canDrop {
				timer = time.NewTimer(n.stallTmo)
				timeout = timer.C
			}
		}
		w := ps.wake
		ps.mu.Unlock()
		select {
		case <-w:
			ps.mu.Lock()
		case <-timeout:
			ps.mu.Lock()
			dropped := ps.q
			ps.q = nil
			for _, d := range dropped {
				ps.inFlight -= len(d.buf)
				d.release()
			}
			if len(dropped) > 0 {
				n.stats.Add(metrics.CtrSlowPeerDrops, int64(len(dropped)))
				ps.notifyLocked()
			}
			if ps.inFlight > 0 && ps.inFlight+size > n.sendWindow {
				// The frame on the wire alone leaves no room: the
				// downgraded peer fetches this record from the server
				// logs as well, and the commit waits no longer.
				ps.mu.Unlock()
				n.stats.Add(metrics.CtrSlowPeerDrops, 1)
				n.stats.Observe(metrics.HistSendStallNS, time.Since(stallStart).Nanoseconds())
				sp.release()
				return
			}
		}
	}
	if ps.closed {
		ps.mu.Unlock()
		sp.release()
		return
	}
	ps.q = append(ps.q, sp)
	ps.inFlight += size
	ps.notifyLocked()
	ps.mu.Unlock()
	if timer != nil {
		timer.Stop()
	}
	if !stallStart.IsZero() {
		n.stats.Observe(metrics.HistSendStallNS, time.Since(stallStart).Nanoseconds())
	}
}

// run drains the queue: each iteration takes everything queued (natural
// coalescing — commits that land while a frame is being written join
// the next one) and ships it as a single frame. The window bytes are
// released only after the send completes, so inFlight really is queued
// plus in-flight. Exits once closed with an empty queue.
func (ps *peerSender) run() {
	n := ps.n
	defer n.wg.Done()
	for {
		ps.mu.Lock()
		for len(ps.q) == 0 && !ps.closed {
			w := ps.wake
			ps.mu.Unlock()
			<-w
			ps.mu.Lock()
		}
		if len(ps.q) == 0 {
			ps.mu.Unlock()
			return // closed and drained
		}
		batch := ps.q
		ps.q = nil
		ps.mu.Unlock()

		ps.ship(batch)

		freed := 0
		for _, sp := range batch {
			freed += len(sp.buf)
		}
		ps.mu.Lock()
		ps.inFlight -= freed
		ps.notifyLocked()
		ps.mu.Unlock()
		for _, sp := range batch {
			sp.release()
		}
	}
}

// ship sends one batch frame carrying the drained records, choosing
// between the compressed (MsgUpdateBatchC) and plain (MsgUpdateBatch)
// encodings by the size heuristic. The standard batch-frame byte stream
// is built as a vector — count and length words in one pooled skeleton,
// record payloads aliased in place — so the compressed path deflates it
// without materializing the concatenation and the plain path hands it
// to the transport as a scatter-gather write. A one-record frame's
// compressed payload is computed once and shared by every peer
// (soloFrame).
func (ps *peerSender) ship(batch []*sharedPayload) {
	n := ps.n
	traced := n.trace.Enabled()
	var t0 time.Time
	if traced {
		t0 = time.Now()
	}
	tm := metrics.StartTimer(n.stats, metrics.PhaseNetIO)

	skel := bufpool.Get(4 + 4*len(batch))
	skel = skel[:4+4*len(batch)]
	putU32(skel[0:4], uint32(len(batch)))
	parts := make([][]byte, 0, 1+2*len(batch))
	parts = append(parts, skel[0:4])
	rawSize := 4
	off := 4
	for _, sp := range batch {
		putU32(skel[off:off+4], uint32(len(sp.buf)))
		parts = append(parts, skel[off:off+4], sp.buf)
		off += 4
		rawSize += 4 + len(sp.buf)
	}

	var frame []byte
	if !n.noCompress {
		if len(batch) == 1 {
			// Almost every frame carries one record, and that frame is the
			// same bytes for every peer: deflate it once per record.
			frame = batch[0].soloFrame(n, parts, rawSize)
		} else if frame = n.deflateFrame(parts, rawSize); frame != nil {
			defer bufpool.Put(frame)
		}
		if frame == nil {
			n.stats.Add(metrics.CtrCompressSkips, 1)
		}
	}
	var err error
	wire := rawSize
	if frame != nil {
		wire = len(frame)
		err = netproto.SendVec(n.tr, ps.peer, MsgUpdateBatchC, [][]byte{frame})
	} else {
		err = netproto.SendVec(n.tr, ps.peer, MsgUpdateBatch, parts)
	}
	// The phase is charged before the frame is counted, so a reader that
	// sees the count also sees this frame's network time.
	tm.Stop()
	bufpool.Put(skel)
	if err != nil {
		n.stats.Add(metrics.CtrSendErrors, 1)
		return
	}
	n.stats.Add(metrics.CtrMsgsSent, 1)
	n.stats.Add(metrics.CtrBytesSent, int64(wire))
	n.stats.Add(metrics.CtrBytesSentRaw, int64(rawSize))
	n.stats.Add(metrics.BytesSentTo(uint32(ps.peer)), int64(wire))
	n.stats.Add(metrics.CtrBatchFrames, 1)
	n.stats.Add(metrics.CtrBatchRecords, int64(len(batch)))
	if frame != nil {
		n.stats.Add(metrics.CtrCompressedFrames, 1)
	}
	if traced {
		n.trace.Emit(obs.Span{
			Name: obs.SpanFrame, Peer: uint32(ps.peer),
			Start: t0.UnixNano(), Dur: time.Since(t0).Nanoseconds(),
			N: int64(len(batch)),
		})
	}
}

// onUpdateBatch decodes a plain batch frame and feeds its records to
// the apply pipeline in frame order. The frame is counted once handled,
// so a reader that sees the count also sees its records admitted.
func (n *Node) onUpdateBatch(from netproto.NodeID, payload []byte) {
	defer n.stats.Add(metrics.CtrUpdateFramesRecv, 1)
	n.dispatchBatch(from, payload)
}

// onUpdateBatchC handles the compressed batch frame: a u32 declared raw
// size followed by the DEFLATE stream of the standard frame bytes.
// Decoding dispatches by frame type, so plain and compressed frames
// interoperate on one link. Corrupt tags, truncated streams, and
// bomb-sized declared lengths all land in decodeError — never a panic
// or an unbounded allocation.
func (n *Node) onUpdateBatchC(from netproto.NodeID, payload []byte) {
	defer n.stats.Add(metrics.CtrUpdateFramesRecv, 1)
	raw, err := inflateBatch(payload)
	if err != nil {
		n.decodeError(from)
		return
	}
	n.dispatchBatch(from, raw)
	bufpool.Put(raw)
}

// inflateBatch recovers the standard batch-frame bytes from a
// MsgUpdateBatchC payload into a pooled buffer the caller must Put.
func inflateBatch(payload []byte) ([]byte, error) {
	if len(payload) < 4 {
		return nil, fmt.Errorf("%w: %d-byte frame", errBadBatchC, len(payload))
	}
	rawLen := int(getU32(payload))
	if rawLen < 4 || rawLen > maxCompressedBatchRaw {
		return nil, fmt.Errorf("%w: declared size %d", errBadBatchC, rawLen)
	}
	// The declared size caps the inflater; the initial allocation is
	// additionally clamped so the declared length alone cannot force a
	// large buffer — growth beyond it happens only as real data arrives.
	prealloc := rawLen
	if prealloc > 1<<20 {
		prealloc = 1 << 20
	}
	out, err := wal.Decompress(bufpool.Get(prealloc), payload[4:], rawLen)
	if err != nil {
		bufpool.Put(out)
		return nil, err
	}
	if len(out) != rawLen {
		bufpool.Put(out)
		return nil, fmt.Errorf("%w: inflated %d bytes, declared %d", errBadBatchC, len(out), rawLen)
	}
	return out, nil
}

// dispatchBatch decodes the standard batch-frame bytes (however they
// arrived) and feeds the records to the apply pipeline in frame order.
func (n *Node) dispatchBatch(from netproto.NodeID, frame []byte) {
	parts, err := netproto.SplitBatch(frame)
	if err != nil {
		n.decodeError(from)
		return
	}
	for _, part := range parts {
		rec, aliased, err := decodeTaggedRecord(part)
		if err != nil {
			n.decodeError(from)
			return
		}
		if aliased {
			rec = n.adoptRecord(rec)
		}
		n.enqueue(rec)
	}
}

// decodeTaggedRecord decodes one format-tagged record: a batch-frame part
// or a record on a lock token. aliased reports that the record's range
// data still points into part (the compressed decoder does not copy);
// the caller must move it out before part's buffer is reused.
func decodeTaggedRecord(part []byte) (rec *wal.TxRecord, aliased bool, err error) {
	if len(part) < 1 {
		return nil, false, errBadTag
	}
	switch part[0] {
	case batchFmtCompressed:
		rec, err = wal.DecodeCompressed(part[1:])
		return rec, true, err
	case batchFmtStandard:
		rec, _, err = wal.DecodeStandard(part[1:])
		return rec, false, err
	default:
		return nil, false, fmt.Errorf("%w %#x", errBadTag, part[0])
	}
}
