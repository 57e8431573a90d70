// Package lockmgr implements the paper's distributed segment locks
// (§3.3): token-based mutual exclusion with a centralized manager per
// lock and a distributed waiter queue, as used by TreadMarks and by the
// prototype.
//
// At all times exactly one node owns a lock's token. Acquiring on the
// owning node needs no communication; other nodes send a request to the
// lock's manager (determined from the lock id), which appends the
// requester to a distributed queue by forwarding the request to the
// previous queue tail. The previous tail passes the token as soon as
// its local transaction releases the lock.
//
// Each lock carries two counters on its token:
//
//   - Seq, incremented on every acquire: the sequence number stamped
//     into lock records (§3.4);
//   - LastWriteSeq, the Seq of the most recent *writing* holder: the
//     coherency interlock blocks an acquire until all updates through
//     LastWriteSeq have been applied locally, so a token can never
//     outrun the update stream it orders (the A/B/C scenario of §3.4).
//
// The interlock state (applied-write sequence per lock) lives here;
// the coherency layer calls MarkApplied as it installs updates and
// WaitApplied to order them.
package lockmgr

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"lbc/internal/metrics"
	"lbc/internal/netproto"
	"lbc/internal/obs"
)

// Message type codes on the transport (0x10-0x1F reserved for lockmgr).
const (
	MsgLockReq   uint8 = 0x10 // requester -> manager: {lock u32, requester u32}
	MsgLockPass  uint8 = 0x11 // manager -> prev tail: {lock u32, to u32}
	MsgLockToken uint8 = 0x12 // prev tail -> requester: {lock u32, seq u64, lastWriteSeq u64}
)

// ErrClosed is returned by Acquire after Close.
var ErrClosed = errors.New("lockmgr: closed")

// ErrAcquireTimeout is returned by AcquireTimeout when the token (or
// the interlock's applied watermark) does not arrive in time — the
// holder is unreachable, crashed, or still writing.
var ErrAcquireTimeout = errors.New("lockmgr: acquire timed out")

// ErrPeerEvicted (shared with the transport layer) marks operations
// against a peer the failure detector has evicted: requests to a dead
// manager fail with it, and background token passes abandon instead of
// retrying into the void. errors.Is matches it through the wrapped
// errors Acquire returns.
var ErrPeerEvicted = netproto.ErrPeerEvicted

// tokenRetryDelay is the base delay of the capped exponential backoff
// a failed token pass retries under (delays double per attempt, capped
// at one second).
var tokenRetryDelay = 25 * time.Millisecond

// maxTokenSendAttempts bounds how many times a token pass is tried
// before it is abandoned (lock_token_sends_abandoned). Abandoning is
// safe only because an abandoned token is recoverable: the membership
// layer's reclaim protocol re-mints tokens lost to dead peers, and a
// pass to a live peer that failed this many times means the link — not
// the peer — is gone, which the failure detector will shortly confirm
// as an eviction. The pre-membership behavior was retry-forever.
var maxTokenSendAttempts = 8

// lockState is this node's view of one lock.
type lockState struct {
	haveToken bool
	held      bool
	readers   int  // concurrent local shared holders
	requested bool // a MsgLockReq is outstanding
	seq       uint64
	lastWrite uint64
	pendingTo netproto.NodeID // pass token here on release (0 = none)
	hasPend   bool
	// writeWaiters counts local goroutines parked in acquire(). A
	// queued pass must defer to them: the token routed here satisfies
	// their (earlier) queue position, and they admit even with a pass
	// pending — forwarding first would steal their turn. Shared
	// waiters are deliberately excluded: they yield to a pending pass
	// (anti-starvation) and re-request, so a token arriving with only
	// shared waiters moves straight on.
	writeWaiters int

	applied uint64 // highest write seq applied locally (interlock)
}

// TokenData lets a higher layer piggyback an opaque payload on token
// passes (the §2.2 alternative where "segment updates could be ...
// passed with the lock token by the last writer", Midway-style).
// PrepareToken runs on the sending node just before the token leaves;
// TokenArrived runs on the receiver before waiters wake. Neither may
// call back into the Manager's blocking operations.
type TokenData interface {
	PrepareToken(lockID uint32, to netproto.NodeID) []byte
	TokenArrived(lockID uint32, from netproto.NodeID, payload []byte)
}

// Manager provides distributed locks over a transport.
type Manager struct {
	tr    netproto.Transport
	nodes []netproto.NodeID
	ring  *ring
	stats *metrics.Stats
	trace *obs.Tracer

	mu     sync.Mutex
	cond   *sync.Cond
	locks  map[uint32]*lockState
	tails  map[uint32]netproto.NodeID // manager-role queue tails
	closed bool

	tdMu sync.RWMutex
	td   TokenData

	lvMu sync.RWMutex
	live func(netproto.NodeID) bool // nil: every roster node is live

	// routeMu guards the resolved-home cache and the migration
	// overrides. It is a leaf below m.mu (ManagerOf runs both with and
	// without m.mu held) and above lvMu (resolution consults the live
	// view while holding it).
	routeMu   sync.RWMutex
	homeCache map[uint32]netproto.NodeID // lock -> resolved manager, this view
	overrides map[uint32]netproto.NodeID // lock -> migrated home

	mig migrator
}

// SetLiveView installs the failure detector's liveness predicate.
// With it, ManagerOf routes around evicted nodes (the first live
// successor in ring order from the lock's position), and token sends
// to evicted peers are abandoned instead of retried. Every node must
// use the same view for the manager choice to stay consistent — the
// membership layer's eviction broadcast provides exactly that.
// Installing a view invalidates the resolved-home cache.
func (m *Manager) SetLiveView(fn func(netproto.NodeID) bool) {
	m.lvMu.Lock()
	m.live = fn
	m.lvMu.Unlock()
	m.InvalidateRoutes()
}

// InvalidateRoutes drops every cached ManagerOf resolution. The
// membership layer calls it on each view change (eviction, rejoin):
// cached homes are valid only within one view, and revalidating
// per-call would put the live-view walk back on the acquire hot path.
func (m *Manager) InvalidateRoutes() {
	m.routeMu.Lock()
	clear(m.homeCache)
	m.routeMu.Unlock()
}

// peerLive reports whether the live view (if any) considers id alive.
func (m *Manager) peerLive(id netproto.NodeID) bool {
	m.lvMu.RLock()
	fn := m.live
	m.lvMu.RUnlock()
	return fn == nil || fn(id)
}

// SetTokenData installs the token piggyback hooks. Install before any
// lock traffic flows.
func (m *Manager) SetTokenData(td TokenData) {
	m.tdMu.Lock()
	defer m.tdMu.Unlock()
	m.td = td
}

func (m *Manager) tokenData() TokenData {
	m.tdMu.RLock()
	defer m.tdMu.RUnlock()
	return m.td
}

// New creates a lock manager endpoint. nodes must be the identical
// cluster membership on every node: the manager of lock L is the ring
// owner of L's hash under consistent-hash placement (HomeOf), and
// that node initially owns L's token. Placement depends only on the
// roster's ids, not its order, so differently-ordered peer lists
// still agree.
func New(tr netproto.Transport, nodes []netproto.NodeID, stats *metrics.Stats) *Manager {
	if stats == nil {
		stats = metrics.NewStats()
	}
	m := &Manager{
		tr:        tr,
		nodes:     append([]netproto.NodeID(nil), nodes...),
		stats:     stats,
		locks:     map[uint32]*lockState{},
		tails:     map[uint32]netproto.NodeID{},
		homeCache: map[uint32]netproto.NodeID{},
		overrides: map[uint32]netproto.NodeID{},
	}
	m.ring = buildRing(m.nodes)
	m.cond = sync.NewCond(&m.mu)
	m.mig.init(m)
	tr.Handle(MsgLockReq, m.onLockReq)
	tr.Handle(MsgLockPass, m.onLockPass)
	tr.Handle(MsgLockToken, m.onLockToken)
	tr.Handle(MsgMigrate, m.onMigrate)
	tr.Handle(MsgMigrateAck, m.onMigrateAck)
	tr.Handle(MsgHomeUpdate, m.onHomeUpdate)
	return m
}

// Stats returns the manager's metrics accumulator.
func (m *Manager) Stats() *metrics.Stats { return m.stats }

// SetTracer directs token-movement spans (lock.token_send/recv) to tr.
// Install before any lock traffic flows; tr may be nil.
func (m *Manager) SetTracer(tr *obs.Tracer) { m.trace = tr }

// ManagerOf returns the node that manages lock id: a migrated home
// installed by the handoff protocol while it stays live, else the
// lock's consistent-hash birth home, or — under a live view with that
// node evicted — the first live successor in ring order. When the
// home node rejoins, management reverts to it (the rejoin surgery
// repairs its queue-tail bookkeeping first). Resolutions are cached
// per membership view: the ring walk is O(distinct owners) and sits
// on the acquire hot path, so repeat calls hit the cache until
// InvalidateRoutes drops it on a view change.
func (m *Manager) ManagerOf(lockID uint32) netproto.NodeID {
	m.routeMu.RLock()
	id, ok := m.homeCache[lockID]
	m.routeMu.RUnlock()
	if ok {
		return id
	}
	m.routeMu.Lock()
	defer m.routeMu.Unlock()
	if id, ok := m.homeCache[lockID]; ok {
		return id
	}
	id = m.resolveHomeLocked(lockID)
	m.homeCache[lockID] = id
	return id
}

// resolveHomeLocked computes the current manager without the cache.
// Callers hold routeMu (write).
func (m *Manager) resolveHomeLocked(lockID uint32) netproto.NodeID {
	if ov, ok := m.overrides[lockID]; ok {
		if m.peerLive(ov) {
			return ov
		}
		// A migrated home that died loses the role: fall back to ring
		// placement (the reclaim protocol re-mints at the survivor).
		delete(m.overrides, lockID)
	}
	res := m.nodes[m.ring.ownerOf(lockID)]
	m.ring.walk(lockID, len(m.nodes), func(idx int) bool {
		if m.peerLive(m.nodes[idx]) {
			res = m.nodes[idx]
			return false
		}
		return true
	})
	return res
}

// BirthHome returns the lock's ring birth home on this manager's
// roster — where its token is minted, regardless of live view or
// migration overrides.
func (m *Manager) BirthHome(lockID uint32) netproto.NodeID {
	return m.nodes[m.ring.ownerOf(lockID)]
}

// state returns (creating if needed) the local state for a lock. The
// token is born at the lock's ring birth home — never at a stand-in
// manager or a migrated home, which route requests but must not mint
// a second token when the real one survives on some other node (the
// reclaim protocol adopts a token at the stand-in only after
// confirming no survivor holds one). Callers hold m.mu.
func (m *Manager) state(lockID uint32) *lockState {
	st, ok := m.locks[lockID]
	if !ok {
		st = &lockState{haveToken: m.nodes[m.ring.ownerOf(lockID)] == m.tr.Self()}
		m.locks[lockID] = st
	}
	return st
}

// Grant describes a successful acquire.
type Grant struct {
	LockID uint32
	// Seq is the sequence number assigned to this acquire; it tags the
	// transaction's lock record.
	Seq uint64
	// PrevWriteSeq is the sequence number of the last writing holder
	// before this acquire; receivers use it to order updates.
	PrevWriteSeq uint64
}

// Acquire blocks until the lock is held by the caller on this node and
// all remote updates through the token's LastWriteSeq have been applied
// locally (the coherency interlock). Locks follow strict two-phase
// locking: the caller must hold the grant until Release at commit.
func (m *Manager) Acquire(lockID uint32) (Grant, error) {
	return m.acquire(lockID, true, time.Time{})
}

// AcquireTimeout is Acquire bounded by a deadline: if the token does
// not arrive (or the interlock does not clear) within d it returns
// ErrAcquireTimeout. Any token request already sent stays queued; the
// token eventually parks here and a later acquire claims it, so a
// timed-out acquire never loses the token.
func (m *Manager) AcquireTimeout(lockID uint32, d time.Duration) (Grant, error) {
	return m.acquire(lockID, true, time.Now().Add(d))
}

// AcquireNoInterlock acquires the lock token and mutual exclusion but
// does NOT wait for remote updates to be applied. It exists for lazy
// propagation (§2.2): the acquirer itself pulls and applies pending
// log records after the token arrives, then proceeds once
// Applied(lockID) reaches the returned grant's PrevWriteSeq.
func (m *Manager) AcquireNoInterlock(lockID uint32) (Grant, error) {
	return m.acquire(lockID, false, time.Time{})
}

// AcquireNoInterlockTimeout is AcquireNoInterlock with a deadline.
func (m *Manager) AcquireNoInterlockTimeout(lockID uint32, d time.Duration) (Grant, error) {
	return m.acquire(lockID, false, time.Now().Add(d))
}

// AcquireShared takes the lock in shared (read) mode: any number of
// local readers may hold it concurrently, and a reader is admitted
// only once all updates through the token's last write have been
// applied (the same §3.4 interlock as exclusive acquires). Writers —
// local exclusive acquires and remote token requests — wait for the
// readers to drain; once a remote pass is pending, no new readers are
// admitted, so remote waiters cannot starve. Shared grants do not
// advance the lock's sequence number (readers leave no lock records).
// This is an extension beyond the paper's mutex-only prototype,
// matching the coarse read locks of the commercial stores §2.1 cites.
func (m *Manager) AcquireShared(lockID uint32) (Grant, error) {
	return m.acquireShared(lockID, true)
}

// AcquireSharedNoInterlock is AcquireShared without the applied-update
// wait, for lazy propagation (the caller pulls and applies itself).
func (m *Manager) AcquireSharedNoInterlock(lockID uint32) (Grant, error) {
	return m.acquireShared(lockID, false)
}

func (m *Manager) acquireShared(lockID uint32, interlock bool) (Grant, error) {
	start := time.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.state(lockID)
	for {
		if m.closed {
			return Grant{}, ErrClosed
		}
		if st.haveToken && !st.held && !st.hasPend && (!interlock || st.applied >= st.lastWrite) {
			st.readers++
			wait := time.Since(start).Nanoseconds()
			m.stats.Add(metrics.CtrLockAcquires, 1)
			m.stats.Add(metrics.CtrLockWaitNS, wait)
			m.stats.Observe(metrics.HistLockWaitNS, wait)
			return Grant{LockID: lockID, Seq: st.seq, PrevWriteSeq: st.lastWrite}, nil
		}
		if !st.haveToken && !st.requested {
			st.requested = true
			mgr := m.ManagerOf(lockID)
			var req [8]byte
			binary.LittleEndian.PutUint32(req[0:], lockID)
			binary.LittleEndian.PutUint32(req[4:], uint32(m.tr.Self()))
			m.stats.Add(metrics.CtrLockRemote, 1)
			if mgr == m.tr.Self() {
				m.handleLockReqLocked(lockID, m.tr.Self())
			} else {
				m.mu.Unlock()
				err := m.tr.Send(mgr, MsgLockReq, req[:])
				m.mu.Lock()
				if err != nil {
					st.requested = false
					return Grant{}, fmt.Errorf("lockmgr: request lock %d: %w", lockID, err)
				}
			}
			continue
		}
		m.cond.Wait()
	}
}

// ReleaseShared drops one shared hold; when the last reader leaves and
// a remote pass is pending, the token moves on.
func (m *Manager) ReleaseShared(lockID uint32) {
	m.mu.Lock()
	st := m.state(lockID)
	if st.readers == 0 {
		m.mu.Unlock()
		return
	}
	st.readers--
	var passTo netproto.NodeID
	var pass bool
	if st.readers == 0 && !st.held && st.hasPend && st.haveToken {
		passTo, pass = st.pendingTo, true
		st.hasPend = false
		st.haveToken = false
	}
	seq, lw := st.seq, st.lastWrite
	m.cond.Broadcast()
	m.mu.Unlock()
	if pass {
		m.sendToken(passTo, lockID, seq, lw)
	}
}

// Readers reports the current local shared-hold count (diagnostics).
func (m *Manager) Readers(lockID uint32) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.state(lockID).readers
}

func (m *Manager) acquire(lockID uint32, interlock bool, deadline time.Time) (Grant, error) {
	start := time.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.state(lockID)
	st.writeWaiters++
	defer func() {
		st.writeWaiters--
		// A timed-out (or failed) last write waiter may leave a parked
		// pass on an idle token; nothing else would move it. Runs
		// before the mutex defer above, so m.mu is still held.
		m.passIfIdleLocked(st, lockID)
	}()
	for {
		if m.closed {
			return Grant{}, ErrClosed
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			return Grant{}, fmt.Errorf("%w: lock %d", ErrAcquireTimeout, lockID)
		}
		if st.haveToken && !st.held && st.readers == 0 && (!interlock || st.applied >= st.lastWrite) {
			st.held = true
			st.seq++
			wait := time.Since(start).Nanoseconds()
			m.stats.Add(metrics.CtrLockAcquires, 1)
			m.stats.Add(metrics.CtrLockWaitNS, wait)
			m.stats.Observe(metrics.HistLockWaitNS, wait)
			m.mig.noteLocalGrantLocked(lockID)
			return Grant{LockID: lockID, Seq: st.seq, PrevWriteSeq: st.lastWrite}, nil
		}
		if !st.haveToken && !st.requested {
			st.requested = true
			mgr := m.ManagerOf(lockID)
			var req [8]byte
			binary.LittleEndian.PutUint32(req[0:], lockID)
			binary.LittleEndian.PutUint32(req[4:], uint32(m.tr.Self()))
			m.stats.Add(metrics.CtrLockRemote, 1)
			if mgr == m.tr.Self() {
				m.handleLockReqLocked(lockID, m.tr.Self())
			} else {
				m.mu.Unlock()
				err := m.tr.Send(mgr, MsgLockReq, req[:])
				m.mu.Lock()
				if err != nil {
					st.requested = false
					return Grant{}, fmt.Errorf("lockmgr: request lock %d: %w", lockID, err)
				}
			}
			// The token (or a pass-to-self) may have arrived while the
			// mutex was released above; recheck before sleeping.
			continue
		}
		if deadline.IsZero() {
			m.cond.Wait()
		} else {
			// sync.Cond has no timed wait; a timer broadcast bounds it.
			t := time.AfterFunc(time.Until(deadline), m.cond.Broadcast)
			m.cond.Wait()
			t.Stop()
		}
	}
}

// Release releases a held lock at transaction commit. wrote records
// whether the transaction modified data under the lock; if so the
// lock's LastWriteSeq advances to this holder's Seq and the local
// applied counter follows (our own writes are trivially applied here).
// If a remote waiter is queued the token is passed to it.
func (m *Manager) Release(lockID uint32, wrote bool) {
	m.mu.Lock()
	st := m.state(lockID)
	if !st.held {
		m.mu.Unlock()
		return
	}
	st.held = false
	if wrote {
		st.lastWrite = st.seq
		if st.applied < st.seq {
			st.applied = st.seq
		}
	}
	var passTo netproto.NodeID
	var pass bool
	if st.hasPend {
		passTo, pass = st.pendingTo, true
		st.hasPend = false
		st.haveToken = false
	}
	seq, lw := st.seq, st.lastWrite
	m.cond.Broadcast()
	m.mu.Unlock()

	if pass {
		m.sendToken(passTo, lockID, seq, lw)
	}
}

// sendToken ships the token (with its counters and any piggybacked
// payload) to a peer. Callers must not hold m.mu: the TokenData hook
// may take its own locks. A failed pass is retried in the background
// under capped exponential backoff — a token stranded by a transient
// partition would otherwise deadlock the lock — but the retry loop
// consults the failure detector and gives up once the destination is
// evicted or the attempt cap is reached: the membership layer's
// reclaim protocol re-mints abandoned tokens, so retrying forever into
// a dead peer (the pre-membership behavior) is no longer needed for
// liveness. Receivers tolerate the duplicate deliveries an ambiguous
// failure can produce — re-installing the same counters is idempotent.
func (m *Manager) sendToken(to netproto.NodeID, lockID uint32, seq, lastWrite uint64) {
	var hdr [20]byte
	binary.LittleEndian.PutUint32(hdr[0:], lockID)
	binary.LittleEndian.PutUint64(hdr[4:], seq)
	binary.LittleEndian.PutUint64(hdr[12:], lastWrite)
	m.stats.Add(metrics.CtrLockRemote, 1)
	if to == m.tr.Self() {
		m.onLockToken(m.tr.Self(), hdr[:])
		return
	}
	if !m.peerLive(to) {
		m.stats.Add(metrics.CtrTokenSendsAbandoned, 1)
		return
	}
	msg := hdr[:]
	if td := m.tokenData(); td != nil {
		if blob := td.PrepareToken(lockID, to); len(blob) > 0 {
			msg = append(append(make([]byte, 0, len(hdr)+len(blob)), hdr[:]...), blob...)
		}
	}
	if m.trace.Enabled() {
		m.trace.Emit(obs.Span{
			Name: obs.SpanTokenSend, Lock: lockID, Peer: uint32(to),
			Start: time.Now().UnixNano(), N: int64(seq),
		})
	}
	if err := m.tr.Send(to, MsgLockToken, msg); err != nil {
		if errors.Is(err, netproto.ErrPeerEvicted) {
			m.stats.Add(metrics.CtrTokenSendsAbandoned, 1)
			return
		}
		m.stats.Add(metrics.CtrTokenPassRetries, 1)
		m.stats.Add(metrics.CtrTokenSendRetries, 1)
		cp := append([]byte(nil), msg...)
		m.retryToken(to, cp, 1)
	}
}

// retryToken re-sends a failed token pass with exponentially growing
// delays (doubling from tokenRetryDelay, capped at one second) until
// the send succeeds, the destination is evicted, the attempt cap is
// reached, or the manager closes.
func (m *Manager) retryToken(to netproto.NodeID, msg []byte, attempt int) {
	if attempt >= maxTokenSendAttempts {
		m.stats.Add(metrics.CtrTokenSendsAbandoned, 1)
		return
	}
	delay := tokenRetryDelay << (attempt - 1)
	if delay > time.Second {
		delay = time.Second
	}
	time.AfterFunc(delay, func() {
		m.mu.Lock()
		closed := m.closed
		m.mu.Unlock()
		if closed {
			return
		}
		if !m.peerLive(to) {
			m.stats.Add(metrics.CtrTokenSendsAbandoned, 1)
			return
		}
		err := m.tr.Send(to, MsgLockToken, msg)
		if err == nil {
			return
		}
		if errors.Is(err, netproto.ErrPeerEvicted) {
			m.stats.Add(metrics.CtrTokenSendsAbandoned, 1)
			return
		}
		m.stats.Add(metrics.CtrTokenPassRetries, 1)
		m.stats.Add(metrics.CtrTokenSendRetries, 1)
		m.retryToken(to, msg, attempt+1)
	})
}

// onLockReq runs at the lock's manager: append the requester to the
// distributed queue by forwarding a pass request to the previous tail.
func (m *Manager) onLockReq(from netproto.NodeID, payload []byte) {
	if len(payload) != 8 {
		return
	}
	lockID := binary.LittleEndian.Uint32(payload[0:])
	requester := netproto.NodeID(binary.LittleEndian.Uint32(payload[4:]))
	m.mu.Lock()
	defer m.mu.Unlock()
	m.handleLockReqLocked(lockID, requester)
}

func (m *Manager) handleLockReqLocked(lockID uint32, requester netproto.NodeID) {
	// A request that raced a home migration lands at the old home:
	// bounce it to the migrated manager. One hop terminates — the new
	// home's own override names itself.
	if to, fwd := m.forwardTarget(lockID); fwd {
		var b [8]byte
		binary.LittleEndian.PutUint32(b[0:], lockID)
		binary.LittleEndian.PutUint32(b[4:], uint32(requester))
		m.stats.Add(metrics.CtrLockRemote, 1)
		m.mu.Unlock()
		_ = m.tr.Send(to, MsgLockReq, b[:])
		m.mu.Lock()
		return
	}
	// While this lock's manager role is mid-handoff, requests park
	// until the target acks (then they forward) or the handoff aborts
	// (then they run here).
	if m.mig.bufferLocked(lockID, requester) {
		return
	}
	prevTail, ok := m.tails[lockID]
	if !ok {
		prevTail = m.tr.Self() // token born at the manager
	}
	m.tails[lockID] = requester
	if prevTail == m.tr.Self() {
		m.handleLockPassLocked(lockID, requester)
	} else {
		var b [8]byte
		binary.LittleEndian.PutUint32(b[0:], lockID)
		binary.LittleEndian.PutUint32(b[4:], uint32(requester))
		m.stats.Add(metrics.CtrLockRemote, 1)
		prev := prevTail
		m.mu.Unlock()
		err := m.tr.Send(prev, MsgLockPass, b[:])
		m.mu.Lock()
		_ = err
	}
	// Count the demand last: an evaluation that freezes the role must
	// not strand the request that triggered it. The home's own recalls
	// are counted at grant time instead (noteLocalGrantLocked) so they
	// don't tally twice.
	if requester != m.tr.Self() {
		m.mig.noteWriteLocked(lockID, requester)
	}
}

// onLockPass runs at the previous queue tail: hand the token to `to`
// now if the lock is free, otherwise on release.
func (m *Manager) onLockPass(from netproto.NodeID, payload []byte) {
	if len(payload) != 8 {
		return
	}
	lockID := binary.LittleEndian.Uint32(payload[0:])
	to := netproto.NodeID(binary.LittleEndian.Uint32(payload[4:]))
	m.mu.Lock()
	defer m.mu.Unlock()
	m.handleLockPassLocked(lockID, to)
}

func (m *Manager) handleLockPassLocked(lockID uint32, to netproto.NodeID) {
	if to == m.tr.Self() {
		// The manager queued our own request and we are the previous
		// tail (we already own the token): nothing to pass.
		st := m.state(lockID)
		st.requested = false
		m.cond.Broadcast()
		return
	}
	st := m.state(lockID)
	// Park the successor, then forward immediately only if the token
	// is here with nothing local entitled to it. The guard includes
	// write waiters: a pass can arrive in the window between the token
	// landing here and a parked local acquirer waking to take its
	// turn — forwarding in that window steals the waiter's turn and
	// can strand it behind the successor's unbounded hold.
	st.pendingTo, st.hasPend = to, true
	// Wake cond waiters observing lock state (tests park on it waiting
	// for a successor to be queued; no protocol step needs this).
	m.cond.Broadcast()
	m.passIfIdleLocked(st, lockID)
}

// passIfIdleLocked forwards a parked pass when nothing local can or
// will consume the token: it is present with no holder, no readers,
// and no write waiters. (Write waiters admit even with a pass pending
// and hand the token on at Release; shared waiters yield to a pending
// pass and re-request after it moves on.) Callers hold m.mu; the send
// itself runs with the mutex dropped.
func (m *Manager) passIfIdleLocked(st *lockState, lockID uint32) {
	if !st.hasPend || !st.haveToken || st.held || st.readers > 0 || st.writeWaiters > 0 {
		return
	}
	to := st.pendingTo
	st.hasPend = false
	st.haveToken = false
	seq, lw := st.seq, st.lastWrite
	m.mu.Unlock()
	m.sendToken(to, lockID, seq, lw)
	m.mu.Lock()
}

// onLockToken runs at a requester: the token has arrived.
func (m *Manager) onLockToken(from netproto.NodeID, payload []byte) {
	if len(payload) < 20 {
		return
	}
	lockID := binary.LittleEndian.Uint32(payload[0:])
	seq := binary.LittleEndian.Uint64(payload[4:])
	lw := binary.LittleEndian.Uint64(payload[12:])
	if m.trace.Enabled() {
		m.trace.Emit(obs.Span{
			Name: obs.SpanTokenRecv, Lock: lockID, Peer: uint32(from),
			Start: time.Now().UnixNano(), N: int64(seq),
		})
	}
	if blob := payload[20:]; len(blob) > 0 {
		if td := m.tokenData(); td != nil {
			td.TokenArrived(lockID, from, blob)
		}
	}
	m.mu.Lock()
	st := m.state(lockID)
	st.haveToken = true
	st.requested = false
	st.seq = seq
	st.lastWrite = lw
	m.cond.Broadcast()
	// A successor's pass can outrun the token (they travel from
	// different senders); if it did and only shared waiters (or no
	// one) are parked here, move the token on now — shared waiters
	// refuse to admit past a pending pass, so no later local event
	// would forward it.
	m.passIfIdleLocked(st, lockID)
	m.mu.Unlock()
}

// MarkApplied records that updates through writeSeq for the lock have
// been installed in local memory. Called by the coherency layer's
// applier (and implicitly for our own writes at Release). It wakes
// acquirers blocked on the interlock.
func (m *Manager) MarkApplied(lockID uint32, writeSeq uint64) {
	m.mu.Lock()
	st := m.state(lockID)
	if st.applied < writeSeq {
		st.applied = writeSeq
	}
	m.cond.Broadcast()
	m.mu.Unlock()
}

// Applied returns the highest applied write sequence for the lock.
func (m *Manager) Applied(lockID uint32) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.state(lockID).applied
}

// WaitApplied blocks until updates through writeSeq have been applied
// locally (or the manager closes). The coherency applier uses this to
// serialize updates from different nodes (§3.4: hold log records until
// the updates for the preceding sequence number have been applied).
func (m *Manager) WaitApplied(lockID uint32, writeSeq uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.state(lockID)
	for st.applied < writeSeq {
		if m.closed {
			return ErrClosed
		}
		m.cond.Wait()
	}
	return nil
}

// AwaitApplied is WaitApplied with a timeout: it returns true once
// updates through writeSeq are applied, or false when the timeout
// elapses or the manager closes. It wakes immediately on MarkApplied
// (no busy polling).
func (m *Manager) AwaitApplied(lockID uint32, writeSeq uint64, d time.Duration) bool {
	deadline := time.Now().Add(d)
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.state(lockID)
	for st.applied < writeSeq {
		if m.closed || time.Now().After(deadline) {
			return false
		}
		// The wake-up takes the lock: Wait registers before it unlocks,
		// so a timer that fires early cannot broadcast into the gap
		// before this goroutine is parked and be lost.
		t := time.AfterFunc(time.Until(deadline), func() {
			m.mu.Lock()
			m.cond.Broadcast()
			m.mu.Unlock()
		})
		m.cond.Wait()
		t.Stop()
	}
	return true
}

// --- Crash-recovery surgery ----------------------------------------------
//
// The lock protocol assumes reliable peers: tokens live in volatile
// memory, so a crashed node takes its tokens with it. These calls let
// a supervisor that knows cluster-wide state (the chaos harness, or an
// operator tool) reinstall a coherent token assignment after a crash.
// They must only be used while no acquire for the affected lock is in
// flight (quiesced recovery epochs).

// TokenState returns the lock's token counters and whether this node
// currently owns the token.
func (m *Manager) TokenState(lockID uint32) (seq, lastWrite uint64, have bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.state(lockID)
	return st.seq, st.lastWrite, st.haveToken
}

// AdoptToken force-installs token ownership with the given counters —
// used when the previous holder crashed and its token state was
// salvaged (or reconstructed from the logs). The interlock still
// applies: an acquire waits until updates through lastWrite have been
// applied locally.
func (m *Manager) AdoptToken(lockID uint32, seq, lastWrite uint64) {
	m.mu.Lock()
	st := m.state(lockID)
	st.haveToken = true
	st.requested = false
	st.hasPend = false
	st.seq = seq
	st.lastWrite = lastWrite
	m.cond.Broadcast()
	m.mu.Unlock()
}

// AdoptTokenKeepQueue is AdoptToken for live reclaim: a request that
// raced the eviction may already have parked a pass here, and dropping
// it (as AdoptToken does for quiesced crash surgery) would strand the
// requester. The parked pass is kept and forwarded if nothing local is
// entitled to the token.
func (m *Manager) AdoptTokenKeepQueue(lockID uint32, seq, lastWrite uint64) {
	m.mu.Lock()
	st := m.state(lockID)
	st.haveToken = true
	st.requested = false
	st.seq = seq
	st.lastWrite = lastWrite
	m.cond.Broadcast()
	m.passIfIdleLocked(st, lockID)
	m.mu.Unlock()
}

// ForfeitToken clears local token ownership: a restarted node's fresh
// state claims the tokens it manages, but some may have been adopted
// elsewhere while it was down.
func (m *Manager) ForfeitToken(lockID uint32) {
	m.mu.Lock()
	st := m.state(lockID)
	st.haveToken = false
	st.requested = false
	st.hasPend = false
	m.cond.Broadcast()
	m.mu.Unlock()
}

// EvictPeer purges a dead peer from this node's volatile lock state:
// parked passes destined for it are dropped (the token stays here
// instead of launching at a corpse), manager-side queue tails pointing
// at it are cleared (the next request forwards from the manager's own
// token, or from whatever tail reclaim installs), and request flags
// for locks whose token is absent are reset so parked acquirers
// re-request from the lock's post-eviction manager. Like the rest of
// the surgery API it assumes no acquire for the affected locks is in
// flight (the membership layer evicts between quiesced rounds; a
// re-request racing an in-flight one only costs a duplicate queue
// entry, which the pass protocol tolerates as a duplicate delivery).
func (m *Manager) EvictPeer(peer netproto.NodeID) {
	m.mu.Lock()
	for _, st := range m.locks {
		if st.hasPend && st.pendingTo == peer {
			st.hasPend = false
		}
		if !st.haveToken && st.requested {
			st.requested = false
		}
	}
	for lockID, tail := range m.tails {
		if tail == peer {
			delete(m.tails, lockID)
		}
	}
	m.mig.forgetPeerLocked(peer)
	m.cond.Broadcast()
	m.mu.Unlock()

	// Migrated homes pointing at the corpse lose the role; resolved
	// routes through it are stale either way.
	m.routeMu.Lock()
	for lockID, ov := range m.overrides {
		if ov == peer {
			delete(m.overrides, lockID)
		}
	}
	clear(m.homeCache)
	m.routeMu.Unlock()
}

// SetQueueTail repairs this node's manager-side waiter queue: the next
// MsgLockReq for the lock is forwarded to tail (the current token
// holder after recovery) instead of a node that may no longer exist.
func (m *Manager) SetQueueTail(lockID uint32, tail netproto.NodeID) {
	m.mu.Lock()
	if tail == m.tr.Self() {
		delete(m.tails, lockID)
	} else {
		m.tails[lockID] = tail
	}
	m.mu.Unlock()
}

// Holding reports whether the lock is currently held on this node.
func (m *Manager) Holding(lockID uint32) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.state(lockID).held
}

// HasToken reports whether this node owns the lock's token.
func (m *Manager) HasToken(lockID uint32) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.state(lockID).haveToken
}

// Close unblocks all waiters with ErrClosed.
func (m *Manager) Close() error {
	m.mu.Lock()
	m.closed = true
	m.cond.Broadcast()
	m.mu.Unlock()
	return nil
}
