// Package membership implements live cluster membership for the
// coherency fabric: a heartbeat-based failure detector driving a
// cluster-wide epoch protocol.
//
// Liveness evidence is piggybacked on existing traffic — the Fence
// transport wrapper reports every inbound frame via Observe — plus
// explicit probe/ack frames sent to peers that have gone silent. A
// peer silent past SuspectAfter accumulates suspicion on every
// detector tick; at EvictAfter consecutive suspect ticks the peer is
// evicted: the local epoch is bumped, the eviction is broadcast so
// the surviving nodes converge on the same view, and the registered
// OnEvict callback runs (the coherency layer uses it to quarantine
// the peer and reclaim its lock tokens). In-flight frames from before
// the eviction are fenced by the epoch tag the Fence adds to update
// frames.
//
// An evicted node that restarts rejoins in two phases: a ready=false
// Join learns the current epoch (so its outgoing frames carry the
// right tag while it catches up from the server logs), and a
// ready=true Join asks the survivors to readmit it, firing their
// OnRejoin callbacks.
//
// The detector is tick-driven and reads time only through the Clock
// interface, so chaos harnesses substitute a ManualClock and drive
// Tick explicitly for deterministic, seed-reproducible eviction
// schedules; production deployments call Start for a wall-clock
// ticker.
package membership

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lbc/internal/metrics"
	"lbc/internal/netproto"
	"lbc/internal/obs"
)

// Message type codes on the transport (0x30-0x3F reserved here).
const (
	MsgPing   uint8 = 0x30 // {epoch u32}: probe to a silent peer
	MsgAck    uint8 = 0x31 // {epoch u32}: probe reply
	MsgEvict  uint8 = 0x32 // {epoch u32, victim u32}: eviction broadcast
	MsgJoin   uint8 = 0x33 // {node u32, ready u8}: epoch query / readmission request
	MsgJoinOK uint8 = 0x34 // {epoch u32}: reply to MsgJoin
)

// ErrJoinTimeout is returned by Join when no peer answers in time.
var ErrJoinTimeout = errors.New("membership: join timed out")

// Clock abstracts the detector's time source so chaos tests can drive
// it deterministically.
type Clock interface {
	Now() time.Time
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

// ManualClock is a Clock advanced explicitly by a test harness. All
// monitors in a deterministic cluster share one instance.
type ManualClock struct {
	mu sync.Mutex
	t  time.Time
}

// NewManualClock starts at a fixed, seed-independent instant.
func NewManualClock() *ManualClock {
	return &ManualClock{t: time.Unix(1_000_000, 0)}
}

// Now implements Clock.
func (c *ManualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

// Advance moves the clock forward by d.
func (c *ManualClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// Config configures a Monitor.
type Config struct {
	// Transport carries the probe/eviction/join frames and identifies
	// this node. Required. The monitor registers handlers 0x30-0x34.
	Transport netproto.Transport
	// Nodes is the full, ordered cluster roster (identical everywhere).
	Nodes []netproto.NodeID
	// Clock defaults to wall-clock time.
	Clock Clock
	// SuspectAfter is how long a peer may stay silent before a detector
	// tick suspects (and probes) it. Default 500ms.
	SuspectAfter time.Duration
	// EvictAfter is how many consecutive suspect ticks confirm an
	// eviction. Default 3: a probe ack between ticks clears suspicion,
	// so transient silence never evicts.
	EvictAfter int
	// Stats receives detector counters; defaults to a fresh accumulator.
	Stats *metrics.Stats
	// Trace receives member.* spans; may be nil.
	Trace *obs.Tracer
}

// PeerInfo is one peer's detector state, for debug surfaces and
// harness polling.
type PeerInfo struct {
	Node      netproto.NodeID
	Alive     bool
	Suspect   int
	LastHeard time.Time
}

type peerState struct {
	lastHeard time.Time
	suspect   int
	evicted   bool
}

// Monitor is one node's failure detector and membership view.
type Monitor struct {
	tr           netproto.Transport
	nodes        []netproto.NodeID
	clock        Clock
	suspectAfter time.Duration
	evictAfter   int
	stats        *metrics.Stats
	trace        *obs.Tracer

	epoch atomic.Uint32

	mu          sync.Mutex
	peers       map[netproto.NodeID]*peerState
	selfEvicted bool
	closed      bool
	onEvict     func(peer netproto.NodeID, epoch uint32)
	onRejoin    func(peer netproto.NodeID, epoch uint32)

	joinMu  sync.Mutex
	joinAck map[netproto.NodeID]uint32 // replies to an in-flight Join
	joinCh  chan struct{}              // closed+replaced on each reply

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// New creates a monitor and registers its transport handlers. Set the
// eviction/rejoin callbacks (OnEvict, OnRejoin) before any traffic
// that could produce an eviction.
func New(cfg Config) *Monitor {
	if cfg.Clock == nil {
		cfg.Clock = realClock{}
	}
	if cfg.SuspectAfter <= 0 {
		cfg.SuspectAfter = 500 * time.Millisecond
	}
	if cfg.EvictAfter <= 0 {
		cfg.EvictAfter = 3
	}
	if cfg.Stats == nil {
		cfg.Stats = metrics.NewStats()
	}
	m := &Monitor{
		tr:           cfg.Transport,
		nodes:        append([]netproto.NodeID(nil), cfg.Nodes...),
		clock:        cfg.Clock,
		suspectAfter: cfg.SuspectAfter,
		evictAfter:   cfg.EvictAfter,
		stats:        cfg.Stats,
		trace:        cfg.Trace,
		peers:        map[netproto.NodeID]*peerState{},
		joinAck:      map[netproto.NodeID]uint32{},
		joinCh:       make(chan struct{}),
		stop:         make(chan struct{}),
	}
	now := m.clock.Now()
	for _, id := range m.nodes {
		if id != m.tr.Self() {
			m.peers[id] = &peerState{lastHeard: now}
		}
	}
	m.tr.Handle(MsgPing, m.onPing)
	m.tr.Handle(MsgAck, m.onAck)
	m.tr.Handle(MsgEvict, m.onEvictMsg)
	m.tr.Handle(MsgJoin, m.onJoin)
	m.tr.Handle(MsgJoinOK, m.onJoinOK)
	return m
}

// OnEvict registers the callback fired (in its own goroutine) when a
// peer is evicted — once per victim per epoch, whether the eviction
// was confirmed locally or adopted from a peer's broadcast.
func (m *Monitor) OnEvict(fn func(peer netproto.NodeID, epoch uint32)) {
	m.mu.Lock()
	m.onEvict = fn
	m.mu.Unlock()
}

// OnRejoin registers the callback fired (in its own goroutine) when an
// evicted peer is readmitted by a ready Join. The joiner is answered
// once the callback returns.
func (m *Monitor) OnRejoin(fn func(peer netproto.NodeID, epoch uint32)) {
	m.mu.Lock()
	m.onRejoin = fn
	m.mu.Unlock()
}

// Epoch returns the current membership epoch.
func (m *Monitor) Epoch() uint32 { return m.epoch.Load() }

// SetEpoch force-installs the epoch — used by a rejoining node after a
// ready=false Join taught it the cluster's current epoch.
func (m *Monitor) SetEpoch(e uint32) {
	for {
		cur := m.epoch.Load()
		if e <= cur || m.epoch.CompareAndSwap(cur, e) {
			return
		}
	}
}

// Self returns this node's id.
func (m *Monitor) Self() netproto.NodeID { return m.tr.Self() }

// Alive reports whether the node is currently a member (self is
// always alive from its own point of view unless evicted remotely).
func (m *Monitor) Alive(id netproto.NodeID) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if id == m.tr.Self() {
		return !m.selfEvicted
	}
	st, ok := m.peers[id]
	return ok && !st.evicted
}

// Evicted reports whether the peer is currently evicted.
func (m *Monitor) Evicted(id netproto.NodeID) bool { return !m.Alive(id) }

// SelfEvicted reports whether a peer's broadcast evicted this node (a
// partitioned-but-alive node learns it must rejoin).
func (m *Monitor) SelfEvicted() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.selfEvicted
}

// Peers returns the detector state of every peer, ordered by id.
func (m *Monitor) Peers() []PeerInfo {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]PeerInfo, 0, len(m.peers))
	for id, st := range m.peers {
		out = append(out, PeerInfo{Node: id, Alive: !st.evicted, Suspect: st.suspect, LastHeard: st.lastHeard})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// Suspects returns the peer's current consecutive-suspect-tick count.
func (m *Monitor) Suspects(id netproto.NodeID) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if st, ok := m.peers[id]; ok {
		return st.suspect
	}
	return 0
}

// Observe records liveness evidence for a peer (the Fence calls this
// for every inbound frame; the monitor's own handlers call it too).
// Evidence from an evicted peer does not resurrect it: only a ready
// Join readmits.
func (m *Monitor) Observe(from netproto.NodeID) {
	m.mu.Lock()
	if st, ok := m.peers[from]; ok && !st.evicted {
		st.lastHeard = m.clock.Now()
		st.suspect = 0
	}
	m.mu.Unlock()
}

// Tick runs one detector round: peers silent past SuspectAfter gain a
// suspicion (and are probed); a peer reaching EvictAfter consecutive
// suspicions is evicted. Deterministic harnesses call Tick directly
// under a ManualClock; Start runs it on a wall-clock ticker.
func (m *Monitor) Tick() {
	now := m.clock.Now()
	var probe []netproto.NodeID
	var evict []netproto.NodeID
	var newEpoch uint32

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	for id, st := range m.peers {
		if st.evicted {
			continue
		}
		if now.Sub(st.lastHeard) <= m.suspectAfter {
			st.suspect = 0
			continue
		}
		st.suspect++
		if st.suspect == 1 {
			m.stats.Add(metrics.CtrSuspicions, 1)
			if m.trace.Enabled() {
				m.trace.Emit(obs.Span{Name: obs.SpanSuspect, Peer: uint32(id), Start: time.Now().UnixNano()})
			}
		}
		if st.suspect >= m.evictAfter {
			st.evicted = true
			evict = append(evict, id)
		} else {
			probe = append(probe, id)
		}
	}
	if len(evict) > 0 {
		sort.Slice(evict, func(i, j int) bool { return evict[i] < evict[j] })
		newEpoch = m.epoch.Load() + uint32(len(evict))
		m.epoch.Store(newEpoch)
	}
	onEvict := m.onEvict
	m.mu.Unlock()

	for _, id := range probe {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], m.epoch.Load())
		_ = m.tr.Send(id, MsgPing, b[:])
	}
	for _, victim := range evict {
		m.announceEvict(victim, newEpoch)
		m.stats.Add(metrics.CtrEvictions, 1)
		if m.trace.Enabled() {
			m.trace.Emit(obs.Span{Name: obs.SpanEvict, Peer: uint32(victim), Start: time.Now().UnixNano(), N: int64(newEpoch)})
		}
		if onEvict != nil {
			// Callbacks run off the detector's goroutine: reclamation
			// talks to peers and must not block ticks (or, when the
			// eviction was adopted from a broadcast, the transport's
			// dispatch loop).
			go onEvict(victim, newEpoch)
		}
	}
}

// announceEvict broadcasts the eviction to every live peer, and (best
// effort) to the victim itself: a partitioned-but-alive victim learns
// it has been expelled (SelfEvicted) and must rejoin rather than keep
// writing into fences. A truly dead victim just fails the send.
func (m *Monitor) announceEvict(victim netproto.NodeID, epoch uint32) {
	var b [8]byte
	binary.LittleEndian.PutUint32(b[0:], epoch)
	binary.LittleEndian.PutUint32(b[4:], uint32(victim))
	for _, id := range m.nodes {
		if id == m.tr.Self() {
			continue
		}
		if id != victim && !m.Alive(id) {
			continue
		}
		_ = m.tr.Send(id, MsgEvict, b[:])
	}
}

// Start runs the detector on a wall-clock ticker until Close.
func (m *Monitor) Start(interval time.Duration) {
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				m.Tick()
			case <-m.stop:
				return
			}
		}
	}()
}

// Close stops the ticker goroutine (transport handlers stay registered
// but become inert as the transport itself closes).
func (m *Monitor) Close() error {
	m.stopOnce.Do(func() { close(m.stop) })
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	m.wg.Wait()
	return nil
}

// Join contacts the cluster. With ready=false it only learns the
// current epoch (call before catch-up and follow with SetEpoch). With
// ready=true it asks every live peer to readmit this node, firing
// their OnRejoin callbacks; it waits for an answer from each peer it
// could reach, and a peer answers only after its callback returned, so
// on return the survivors agree this node is back and have acted on it.
// Returns the highest epoch any peer reported.
func (m *Monitor) Join(ready bool, timeout time.Duration) (uint32, error) {
	var b [5]byte
	binary.LittleEndian.PutUint32(b[0:], uint32(m.tr.Self()))
	if ready {
		b[4] = 1
	}
	m.joinMu.Lock()
	m.joinAck = map[netproto.NodeID]uint32{}
	m.joinMu.Unlock()

	want := 0
	for _, id := range m.nodes {
		if id == m.tr.Self() {
			continue
		}
		if m.tr.Send(id, MsgJoin, b[:]) == nil {
			want++
		}
	}
	if want == 0 {
		return 0, fmt.Errorf("%w: no reachable peers", ErrJoinTimeout)
	}
	deadline := time.After(timeout)
	for {
		m.joinMu.Lock()
		got := len(m.joinAck)
		var max uint32
		for _, e := range m.joinAck {
			if e > max {
				max = e
			}
		}
		ch := m.joinCh
		m.joinMu.Unlock()
		if got >= want {
			return max, nil
		}
		select {
		case <-ch:
		case <-deadline:
			if got > 0 {
				// Partial answers still teach us the epoch; the silent
				// peers will observe our traffic and readmit via the
				// MsgJoin they eventually drain.
				return max, nil
			}
			return 0, ErrJoinTimeout
		}
	}
}

// --- handlers -------------------------------------------------------------

func (m *Monitor) onPing(from netproto.NodeID, payload []byte) {
	if len(payload) != 4 {
		return
	}
	m.Observe(from)
	if m.Evicted(from) {
		return // no ack for the dead: an evicted node must rejoin, not linger
	}
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], m.epoch.Load())
	_ = m.tr.Send(from, MsgAck, b[:])
}

func (m *Monitor) onAck(from netproto.NodeID, payload []byte) {
	if len(payload) != 4 {
		return
	}
	m.Observe(from)
}

func (m *Monitor) onEvictMsg(from netproto.NodeID, payload []byte) {
	if len(payload) != 8 {
		return
	}
	epoch := binary.LittleEndian.Uint32(payload[0:])
	victim := netproto.NodeID(binary.LittleEndian.Uint32(payload[4:]))
	m.Observe(from)

	m.mu.Lock()
	if victim == m.tr.Self() {
		m.selfEvicted = true
		m.mu.Unlock()
		m.SetEpoch(epoch)
		return
	}
	st, ok := m.peers[victim]
	if !ok || (st.evicted && epoch <= m.epoch.Load()) {
		m.mu.Unlock()
		return // already adopted (or confirmed locally) at this epoch
	}
	fresh := !st.evicted
	st.evicted = true
	onEvict := m.onEvict
	m.mu.Unlock()

	m.SetEpoch(epoch)
	if fresh {
		m.stats.Add(metrics.CtrEvictions, 1)
		if m.trace.Enabled() {
			m.trace.Emit(obs.Span{Name: obs.SpanEvict, Peer: uint32(victim), Start: time.Now().UnixNano(), N: int64(epoch)})
		}
		if onEvict != nil {
			go onEvict(victim, epoch)
		}
	}
}

func (m *Monitor) onJoin(from netproto.NodeID, payload []byte) {
	if len(payload) != 5 {
		return
	}
	node := netproto.NodeID(binary.LittleEndian.Uint32(payload[0:]))
	ready := payload[4] == 1
	if node != from {
		return
	}
	if ready {
		var onRejoin func(netproto.NodeID, uint32)
		m.mu.Lock()
		if st, ok := m.peers[node]; ok && st.evicted {
			st.evicted = false
			st.suspect = 0
			st.lastHeard = m.clock.Now()
			onRejoin = m.onRejoin
		}
		m.mu.Unlock()
		m.Observe(node)
		if onRejoin != nil {
			epoch := m.epoch.Load()
			m.stats.Add(metrics.CtrRejoins, 1)
			if m.trace.Enabled() {
				m.trace.Emit(obs.Span{Name: obs.SpanRejoin, Peer: uint32(node), Start: time.Now().UnixNano(), N: int64(epoch)})
			}
			// Answer only after the callback: the rejoiner's Join returns
			// on the answers, and from then on it must find every survivor
			// routing to it again (a stale stand-in manager that keeps
			// queueing requests splits a lock's waiter queue in two).
			go func() {
				onRejoin(node, epoch)
				m.answerJoin(from)
			}()
			return
		}
	}
	m.answerJoin(from)
}

// answerJoin tells a joining node the current epoch.
func (m *Monitor) answerJoin(from netproto.NodeID) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], m.epoch.Load())
	_ = m.tr.Send(from, MsgJoinOK, b[:])
}

func (m *Monitor) onJoinOK(from netproto.NodeID, payload []byte) {
	if len(payload) != 4 {
		return
	}
	m.Observe(from)
	epoch := binary.LittleEndian.Uint32(payload[0:])
	m.joinMu.Lock()
	m.joinAck[from] = epoch
	close(m.joinCh)
	m.joinCh = make(chan struct{})
	m.joinMu.Unlock()
}

// Export registers the membership debug gauges on an obs registry:
// the current epoch plus per-peer liveness, suspicion, and
// last-heartbeat age (milliseconds).
func (m *Monitor) Export(reg *obs.Registry) {
	reg.RegisterGauge("membership_epoch", func() int64 { return int64(m.Epoch()) })
	for _, id := range m.nodes {
		if id == m.tr.Self() {
			continue
		}
		id := id
		reg.RegisterGauge(fmt.Sprintf("member_alive_%d", id), func() int64 {
			if m.Alive(id) {
				return 1
			}
			return 0
		})
		reg.RegisterGauge(fmt.Sprintf("member_suspect_%d", id), func() int64 {
			return int64(m.Suspects(id))
		})
		reg.RegisterGauge(fmt.Sprintf("member_heartbeat_age_ms_%d", id), func() int64 {
			m.mu.Lock()
			defer m.mu.Unlock()
			st, ok := m.peers[id]
			if !ok {
				return -1
			}
			return m.clock.Now().Sub(st.lastHeard).Milliseconds()
		})
	}
}
