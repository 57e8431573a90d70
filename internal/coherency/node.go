// Package coherency implements log-based coherency (the paper's
// contribution): it ties together recoverable virtual memory
// (internal/rvm), distributed segment locks (internal/lockmgr), and the
// transport (internal/netproto) so that the redo log records generated
// for recoverability double as the update stream that keeps peer
// caches coherent.
//
// At commit, the new-value records that were just written to the
// durable log are re-encoded with compressed headers (§3.2) and sent to
// every peer that has the modified regions mapped (the prototype's
// eager policy). Receiver goroutines apply the records directly into
// the local memory image, ordered by the per-lock sequence numbers
// carried in embedded lock records (§3.4). A lock acquire completes
// only after all updates through the token's last-writer sequence have
// been applied, so applications never observe stale data under a lock.
//
// Alternative policies from §2 are implemented behind options: lazy
// propagation (pending records pulled from the storage server's log
// cache at acquire), token piggyback (records passed with the lock by
// the last writer, with retention/discard), and the versioned read
// model (received updates buffered until an explicit Accept). Online
// coordinated log trimming (§3.5) and client restart catch-up are
// provided as operations on the Node.
package coherency

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"lbc/internal/lockmgr"
	"lbc/internal/membership"
	"lbc/internal/metrics"
	"lbc/internal/netproto"
	"lbc/internal/obs"
	"lbc/internal/parapply"
	"lbc/internal/rvm"
	"lbc/internal/wal"
)

// Message type codes on the transport (0x20-0x2F reserved here; 0x20
// and 0x21 are unused).
const (
	MsgMapRegion    uint8 = 0x22 // {region u32}: sender has region mapped
	MsgUpdateBatch  uint8 = 0x25 // batch frame of format-tagged records (0x23/0x24 are checkpoint)
	MsgUpdateBatchC uint8 = 0x2D // DEFLATE-compressed batch frame (0x26-0x2C are token/checkpoint/interest)
)

// Propagation selects when committed log tails travel to peers (§2.2).
type Propagation int

const (
	// Eager broadcasts the log tail to interested peers inside commit
	// (the prototype's policy: simple, failure-tolerant, low read
	// latency).
	Eager Propagation = iota
	// Lazy defers propagation: an acquirer pulls pending records from
	// the storage server's per-node logs when the token arrives.
	Lazy
	// Piggyback attaches pending records to lock-token passes (the
	// last writer hands them to the next holder) with the retention /
	// discard protocol of §2.2. No server round trips, no broadcast.
	Piggyback
)

func (p Propagation) String() string {
	switch p {
	case Lazy:
		return "lazy"
	case Piggyback:
		return "piggyback"
	default:
		return "eager"
	}
}

// WireFormat selects the coherency record encoding (header-compression
// ablation; the paper's system always uses Compressed).
type WireFormat int

const (
	// Compressed uses the 4-24 byte range headers of §3.2.
	Compressed WireFormat = iota
	// Standard ships the 104-byte durable-log headers unchanged.
	Standard
)

// Segment declares the scope of one distributed lock: the byte range
// of a region it protects (§2.1: "the store is partitioned into
// segments, each under the control of a separate lock").
type Segment struct {
	LockID uint32
	Region rvm.RegionID
	Off    uint64
	Len    uint64
}

// contains reports whether the byte range [off, off+n) intersects the
// segment.
func (s Segment) overlaps(region rvm.RegionID, off, end uint64) bool {
	return region == s.Region && off < s.Off+s.Len && end > s.Off
}

// PeerLogReader provides read access to peers' logs on the storage
// server, for lazy propagation. store.Client.LogDevice satisfies it
// via NewStoreLogReader.
type PeerLogReader func(node uint32) wal.Device

// Options configures a coherency Node.
type Options struct {
	// RVM is this node's recoverable memory instance. Required.
	RVM *rvm.RVM
	// Transport connects this node to its peers. Required.
	Transport netproto.Transport
	// Nodes is the ordered, cluster-wide node list (identical
	// everywhere); it determines lock managers.
	Nodes []netproto.NodeID
	// Stats defaults to RVM's accumulator.
	Stats *metrics.Stats
	// Propagation policy (default Eager).
	Propagation Propagation
	// Wire format (default Compressed).
	Wire WireFormat
	// PageSize is used for the pages-updated statistic (default 8192,
	// the paper's Alpha page size).
	PageSize int
	// PeerLogs is required in Lazy mode.
	PeerLogs PeerLogReader
	// Versioned buffers received updates until Accept (the read/write
	// model of §2.1-2.2).
	Versioned bool
	// CheckLocks makes SetRange fail if the written range lies in a
	// registered segment whose lock the transaction does not hold.
	CheckLocks bool
	// PullOnStall makes eager-mode acquires fall back to pulling
	// committed records from the storage server's per-node logs when
	// the interlock stalls (a broadcast was lost to a fault). Requires
	// PeerLogs. Without it a lost eager update blocks the next acquire
	// of its lock forever, which is fine on a reliable transport (the
	// prototype's assumption) but not under injected faults.
	PullOnStall bool
	// AcquireTimeout bounds Tx.Acquire when positive; acquires that
	// cannot complete (token holder unreachable) fail with
	// lockmgr.ErrAcquireTimeout instead of blocking forever.
	AcquireTimeout time.Duration
	// InterestRouting ships eager updates only to peers that have
	// registered interest in a record's writing locks (seeded by lock
	// acquisition, withdrawn by DropInterest) instead of to every peer
	// with the region mapped. Requires PeerLogs and implies
	// PullOnStall: a peer acquiring a lock it was not interested in
	// pulls the records it was never sent from the server logs, so
	// routing is purely a delivery optimization (see interest.go).
	InterestRouting bool
	// NoCompress disables DEFLATE payload compression of batch frames
	// (MsgUpdateBatchC). With it set every batch ships as a plain
	// MsgUpdateBatch — the ablation baseline for the wire bench and the
	// header ablation, whose per-record header bytes DEFLATE would
	// otherwise hide. Compression is on by default; small or
	// incompressible batches fall back to the plain frame automatically.
	NoCompress bool
	// Membership, when set, wires live failure handling into the node:
	// the lock manager routes around evicted peers, eviction triggers
	// token reclaim (see membership.go), and rejoin announcements
	// restore the peer to the broadcast sets. The caller owns the
	// monitor's lifecycle (Start/Close); Transport should be a
	// membership.Fence over the same monitor so update frames are
	// epoch-tagged.
	Membership *membership.Monitor

	// Unexported tuning: every caller outside this package runs the
	// defaults; the package tests narrow them.

	// sendWindow bounds, per peer, the bytes queued plus in flight in
	// the batch sender (default 1 MiB). A full window blocks the
	// committing transaction's enqueue — backpressure mirroring
	// wal.GroupWriter's bounded queue — instead of buffering without
	// bound toward a slow peer.
	sendWindow int
	// sendStallTimeout is how long an enqueue blocks on one peer's full
	// window before the slow-peer policy downgrades that peer: its
	// queued backlog is dropped and it recovers the records through the
	// pull backstop (default 500ms). Only effective when the pull path
	// is configured (PullOnStall/InterestRouting with PeerLogs);
	// without it the enqueue keeps blocking, since a drop would lose
	// the records for good.
	sendStallTimeout time.Duration
	// applyWorkers sets the size of the parallel apply worker pool
	// (default min(GOMAXPROCS, 8)). Records on disjoint per-lock chains
	// install concurrently; each chain keeps its §3.4 order.
	applyWorkers int
}

// Node is one participant in the coherent distributed store.
type Node struct {
	rvm      *rvm.RVM
	tr       netproto.Transport
	locks    *lockmgr.Manager
	stats    *metrics.Stats
	trace    *obs.Tracer
	prop     Propagation
	wire     WireFormat
	pageSize int
	peerLogs PeerLogReader
	checkLk  bool

	pullStall  bool
	acqTimeout time.Duration
	noCompress bool
	sendWindow int
	stallTmo   time.Duration
	interestOn bool

	// Apply pipeline. The engine owns dependency scheduling and the
	// workers; the node supplies install/teardown.
	eng *parapply.Engine

	// Pooled arenas backing records adopted from transport buffers, by
	// record identity. Returned to bufpool when the record reaches a
	// terminal state (recordDone).
	arenaMu sync.Mutex
	arenas  map[*wal.TxRecord][]byte

	// Records admitted to the apply pipeline that have not reached a
	// terminal state (installed or dropped). Includes parked and
	// versioned-buffered records; the /debug/lbc queue-depth gauge and
	// Quiesce read it.
	outstanding atomic.Int64

	// Per-peer bounded send windows (batcher.go). psMu guards the map
	// and the closed flag only; each peerSender has its own lock. Both
	// are leaf-level: never taken while holding n.mu.
	psMu        sync.Mutex
	psClosed    bool
	peerSenders map[netproto.NodeID]*peerSender

	// Live membership (nil without Options.Membership). tokInfo /
	// tokWake collect MsgTokenInfo replies during token reclaim.
	member  *membership.Monitor
	tokMu   sync.Mutex
	tokInfo map[uint32]map[netproto.NodeID]tokenInfo
	tokWake chan struct{}

	mu           sync.Mutex
	segments     map[uint32]Segment // by lock id
	regionPeers  map[rvm.RegionID]map[netproto.NodeID]bool
	interest     map[uint32]map[netproto.NodeID]bool // lock -> interested peers
	myInterest   map[uint32]bool                     // locks this node registered
	peersChanged chan struct{}                       // closed+replaced when regionPeers grows
	readPos      map[uint32]int64                    // lazy: per-peer log read offset
	versioned    bool
	buffered     []*wal.TxRecord         // versioned: received, awaiting Accept
	retention    map[uint32]*lockHistory // piggyback: per-lock record history
	clusterNodes []netproto.NodeID

	ckpt *ckptState

	handMu   sync.Mutex // serializes versioned-buffer hand-overs (handOver)
	done     chan struct{}
	wg       sync.WaitGroup
	closeOne sync.Once
}

// ErrLockNotHeld is returned by SetRange with CheckLocks enabled when
// the range's segment lock is not held by the transaction.
var ErrLockNotHeld = errors.New("coherency: segment lock not held")

// New creates a coherency node. The node starts its apply workers
// immediately; call Close to stop them.
func New(opts Options) (*Node, error) {
	if opts.RVM == nil || opts.Transport == nil {
		return nil, errors.New("coherency: RVM and Transport are required")
	}
	if len(opts.Nodes) == 0 {
		return nil, errors.New("coherency: node list is required")
	}
	if opts.Propagation == Lazy && opts.PeerLogs == nil {
		return nil, errors.New("coherency: lazy propagation requires PeerLogs")
	}
	if opts.PullOnStall && opts.PeerLogs == nil {
		return nil, errors.New("coherency: PullOnStall requires PeerLogs")
	}
	if opts.InterestRouting {
		if opts.PeerLogs == nil {
			return nil, errors.New("coherency: InterestRouting requires PeerLogs")
		}
		// The pull path is interest routing's correctness backstop: a
		// peer that was never sent a record fetches it at acquire.
		opts.PullOnStall = true
	}
	if opts.Stats == nil {
		opts.Stats = opts.RVM.Stats()
	}
	if opts.PageSize == 0 {
		opts.PageSize = 8192
	}
	if opts.sendWindow <= 0 {
		opts.sendWindow = 1 << 20
	}
	if opts.sendStallTimeout <= 0 {
		opts.sendStallTimeout = 500 * time.Millisecond
	}
	n := &Node{
		rvm:          opts.RVM,
		tr:           opts.Transport,
		locks:        lockmgr.New(opts.Transport, opts.Nodes, opts.Stats),
		stats:        opts.Stats,
		trace:        opts.RVM.Tracer(),
		prop:         opts.Propagation,
		wire:         opts.Wire,
		pageSize:     opts.PageSize,
		peerLogs:     opts.PeerLogs,
		checkLk:      opts.CheckLocks,
		pullStall:    opts.PullOnStall,
		acqTimeout:   opts.AcquireTimeout,
		noCompress:   opts.NoCompress,
		sendWindow:   opts.sendWindow,
		stallTmo:     opts.sendStallTimeout,
		interestOn:   opts.InterestRouting,
		member:       opts.Membership,
		tokInfo:      map[uint32]map[netproto.NodeID]tokenInfo{},
		tokWake:      make(chan struct{}),
		arenas:       map[*wal.TxRecord][]byte{},
		peerSenders:  map[netproto.NodeID]*peerSender{},
		segments:     map[uint32]Segment{},
		regionPeers:  map[rvm.RegionID]map[netproto.NodeID]bool{},
		interest:     map[uint32]map[netproto.NodeID]bool{},
		myInterest:   map[uint32]bool{},
		peersChanged: make(chan struct{}),
		readPos:      map[uint32]int64{},
		versioned:    opts.Versioned,
		retention:    map[uint32]*lockHistory{},
		clusterNodes: append([]netproto.NodeID(nil), opts.Nodes...),
		done:         make(chan struct{}),
	}
	n.locks.SetTracer(n.trace)
	// The engine exists before any handler is registered: a frame already
	// queued for a restarting node is dispatched as soon as its handler
	// is, and the handler submits to the engine.
	n.eng = parapply.New(parapply.Config{
		Workers: opts.applyWorkers,
		Applied: n.locks.Applied,
		Install: n.installRecord,
		Done:    func(rec *wal.TxRecord, err error) { n.recordDone(rec) },
		Drop: func(rec *wal.TxRecord) {
			n.stats.Add(metrics.CtrRecordsStale, 1)
			n.recordDone(rec)
		},
	})
	n.tr.Handle(MsgMapRegion, n.onMapRegion)
	n.tr.Handle(MsgUpdateBatch, n.onUpdateBatch)
	n.tr.Handle(MsgUpdateBatchC, n.onUpdateBatchC)
	n.tr.Handle(MsgInterest, n.onInterest)
	if opts.Propagation == Piggyback {
		n.locks.SetTokenData(n)
	}
	if n.member != nil {
		n.initMembership()
	}
	n.initCheckpoint()
	// The per-peer senders start lazily on first broadcast toward each
	// peer (see senderFor in batcher.go).
	return n, nil
}

// RVM returns the underlying recoverable memory instance.
func (n *Node) RVM() *rvm.RVM { return n.rvm }

// Locks returns the node's lock manager (exposed for tests and tools).
func (n *Node) Locks() *lockmgr.Manager { return n.locks }

// Stats returns the node's metrics accumulator.
func (n *Node) Stats() *metrics.Stats { return n.stats }

// Self returns this node's id.
func (n *Node) Self() netproto.NodeID { return n.tr.Self() }

// AddSegment registers a lock's scope. All nodes must register the
// same segments. Registration enables per-segment Wrote computation
// (and lock checking when CheckLocks is set).
func (n *Node) AddSegment(seg Segment) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.segments[seg.LockID] = seg
}

// MapRegion maps the region into local memory (loading the permanent
// image from the data store) and announces the mapping to all peers so
// their eager broadcasts include this node.
func (n *Node) MapRegion(id rvm.RegionID, size int) (*rvm.Region, error) {
	reg, err := n.rvm.Map(id, size)
	if err != nil {
		return nil, err
	}
	n.mu.Lock()
	if n.regionPeers[id] == nil {
		n.regionPeers[id] = map[netproto.NodeID]bool{}
	}
	n.mu.Unlock()
	var b [4]byte
	putU32(b[:], uint32(id))
	for _, p := range n.tr.Peers() {
		// Best effort: peers that are not up yet will announce to us
		// when they map.
		_ = n.tr.Send(p, MsgMapRegion, b[:])
	}
	return reg, nil
}

// WaitPeers blocks until at least k peers have announced mapping the
// region (cluster startup barrier), or the timeout elapses. While
// waiting it periodically re-announces this node's own mapping, so
// peers that started later (and missed the original best-effort
// announcement) still learn about us. Announcement arrivals wake the
// wait immediately (no polling): onMapRegion replaces a notification
// channel that this select watches.
func (n *Node) WaitPeers(id rvm.RegionID, k int, timeout time.Duration) error {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	announce := time.NewTicker(50 * time.Millisecond)
	defer announce.Stop()
	reannounce := func() {
		var b [4]byte
		putU32(b[:], uint32(id))
		for _, p := range n.tr.Peers() {
			_ = n.tr.Send(p, MsgMapRegion, b[:])
		}
	}
	for {
		n.mu.Lock()
		have := len(n.regionPeers[id])
		changed := n.peersChanged
		n.mu.Unlock()
		if have >= k {
			return nil
		}
		select {
		case <-changed:
		case <-announce.C:
			reannounce()
		case <-deadline.C:
			return fmt.Errorf("coherency: only %d/%d peers mapped region %d", have, k, id)
		case <-n.done:
			return errors.New("coherency: node closed while waiting for peers")
		}
	}
}

// onMapRegion records that a peer has the region mapped.
func (n *Node) onMapRegion(from netproto.NodeID, payload []byte) {
	if len(payload) != 4 {
		return
	}
	n.NotePeerRegion(from, rvm.RegionID(getU32(payload)))
}

// NotePeerRegion records that a peer has the region mapped, waking any
// WaitPeers. Exposed so a restart supervisor can seed the mapping
// table of a rejoining node without a full announcement round.
func (n *Node) NotePeerRegion(peer netproto.NodeID, id rvm.RegionID) {
	n.mu.Lock()
	if n.regionPeers[id] == nil {
		n.regionPeers[id] = map[netproto.NodeID]bool{}
	}
	fresh := !n.regionPeers[id][peer]
	if fresh {
		n.regionPeers[id][peer] = true
		close(n.peersChanged)
		n.peersChanged = make(chan struct{})
	}
	n.mu.Unlock()
	if fresh {
		// A peer we have not seen map this region may have missed our
		// earlier interest deltas (it was down, or not yet wired).
		n.announceInterestTo(peer)
	}
}

// peersForRecord returns the peers that have any of the record's
// regions mapped (the eager broadcast recipient set). With interest
// routing the set is further narrowed to peers interested in at least
// one of the record's writing locks; records that carry no writing
// lock (the DSM baseline's raw page updates) keep the full region set,
// since no interest key exists to route them by.
func (n *Node) peersForRecord(rec *wal.TxRecord) []netproto.NodeID {
	n.mu.Lock()
	defer n.mu.Unlock()
	set := map[netproto.NodeID]bool{}
	for _, r := range rec.Ranges {
		for p := range n.regionPeers[rvm.RegionID(r.Region)] {
			set[p] = true
		}
	}
	if n.interestOn && len(set) > 0 {
		routed := false
		keep := map[netproto.NodeID]bool{}
		for _, l := range rec.Locks {
			if !l.Wrote {
				continue
			}
			routed = true
			for p := range n.interest[l.LockID] {
				keep[p] = true
			}
		}
		if routed {
			for p := range set {
				if !keep[p] {
					delete(set, p)
				}
			}
		}
	}
	out := make([]netproto.NodeID, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	return out
}

// Close stops the apply pipeline and the lock manager.
func (n *Node) Close() error {
	n.closeOne.Do(func() {
		close(n.done)
		n.closeSenders()
		n.locks.Close()
	})
	n.wg.Wait()
	// Leave versioned mode so a frame still in a transport reader goes
	// to the closed engine (which drops it) instead of a buffer nobody
	// will hand over.
	n.mu.Lock()
	n.versioned = false
	buffered := n.buffered
	n.buffered = nil
	n.mu.Unlock()
	for _, rec := range buffered {
		n.recordDone(rec)
	}
	// Drains in-flight installs and discards parked records.
	n.eng.Close()
	return nil
}

func putU32(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

func getU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
