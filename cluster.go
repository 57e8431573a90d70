package lbc

import (
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"lbc/internal/chaos"
	"lbc/internal/coherency"
	"lbc/internal/lockmgr"
	"lbc/internal/membership"
	"lbc/internal/netproto"
	"lbc/internal/obs"
	"lbc/internal/rangetree"
	"lbc/internal/rvm"
	"lbc/internal/store"
	"lbc/internal/wal"
)

// Option configures cluster construction.
type Option func(*clusterConfig)

type clusterConfig struct {
	tcp         bool
	propagation coherency.Propagation
	wire        coherency.WireFormat
	pageSize    int
	checkLocks  bool
	versioned   map[int]bool
	useStore    bool
	replicated  bool
	seedImages  map[RegionID][]byte
	policy      rangetree.Policy
	diskLogDir  string
	inj         *chaos.Injector
	acqTimeout  time.Duration
	groupCommit bool
	noCompress  bool
	traceCap    int
	member      *MembershipOptions
	migrate     bool
	interest    bool
}

// MembershipOptions configures live failure handling (WithMembership).
type MembershipOptions struct {
	// SuspectAfter / EvictAfter are the failure detector's parameters
	// (see membership.Config); zero values take the detector defaults.
	SuspectAfter time.Duration
	EvictAfter   int
	// Clock substitutes the detector's time source. Deterministic
	// harnesses pass one shared membership.ManualClock and drive
	// Cluster.TickMembership explicitly.
	Clock membership.Clock
	// Interval starts a wall-clock detector ticker on every node when
	// positive. Leave zero with a ManualClock.
	Interval time.Duration
}

// WithTCP connects the nodes over real loopback TCP sockets instead of
// in-process channels (the default). The lock protocol, coherency
// broadcast, and storage traffic then cross the kernel's network
// stack, as in the paper's prototype.
func WithTCP() Option { return func(c *clusterConfig) { c.tcp = true } }

// WithPropagation selects eager (default) or lazy update propagation.
// Lazy implies WithStore (records are pulled from the server's logs).
func WithPropagation(p coherency.Propagation) Option {
	return func(c *clusterConfig) {
		c.propagation = p
		if p == coherency.Lazy {
			c.useStore = true
		}
	}
}

// WithWire selects the coherency message encoding (header ablation).
func WithWire(w coherency.WireFormat) Option {
	return func(c *clusterConfig) { c.wire = w }
}

// WithPageSize sets the page size used for statistics (default 8192).
func WithPageSize(ps int) Option { return func(c *clusterConfig) { c.pageSize = ps } }

// WithCheckLocks makes SetRange fail when a registered segment's lock
// is not held.
func WithCheckLocks() Option { return func(c *clusterConfig) { c.checkLocks = true } }

// WithVersioned puts node i (0-based) in the versioned read model:
// received updates buffer until Accept.
func WithVersioned(i int) Option {
	return func(c *clusterConfig) { c.versioned[i] = true }
}

// WithStore places every node's log and database on a shared storage
// server (started internally), the paper's client/server
// configuration. Without it each node logs to private in-memory
// devices — the "disk logging disabled" setup of §4.
func WithStore() Option { return func(c *clusterConfig) { c.useStore = true } }

// WithReplicatedStore is WithStore plus a synchronous backup server:
// every mutation is mirrored before it is acknowledged (§2's
// "transparently replicated" storage service). Cluster.StoreBackup
// exposes the backup for failover tests.
func WithReplicatedStore() Option {
	return func(c *clusterConfig) {
		c.useStore = true
		c.replicated = true
	}
}

// WithSeedImage preloads a region image into the store so every node
// maps an identical database (used by the OO7 harness).
func WithSeedImage(id RegionID, img []byte) Option {
	return func(c *clusterConfig) {
		cp := make([]byte, len(img))
		copy(cp, img)
		c.seedImages[id] = cp
	}
}

// WithSetRangePolicy selects the modified-range coalescing policy:
// rangetree.CoalesceExact is the paper's optimized set_range (default);
// rangetree.CoalesceFull is standard RVM (Figure 8's rightmost bar).
func WithSetRangePolicy(p rangetree.Policy) Option {
	return func(c *clusterConfig) { c.policy = p }
}

// WithDiskLog writes each node's redo log to a real file under dir, so
// Flush-mode commits pay genuine disk I/O (Figure 8's "Disk" bar).
// Ignored when WithStore is also set (the server owns the logs then).
func WithDiskLog(dir string) Option {
	return func(c *clusterConfig) { c.diskLogDir = dir }
}

// WithChaos routes every node's sends through the injector's
// deterministic fault schedule, and (in store-backed configurations)
// wraps each node's log device with the injector's storage faults and
// enables pull-on-stall so dropped update broadcasts are recovered
// from the server's logs. Combine with Cluster.Crash / Restart for
// full crash-recovery scenarios.
func WithChaos(in *chaos.Injector) Option {
	return func(c *clusterConfig) { c.inj = in }
}

// WithAcquireTimeout bounds every lock acquire; blocked acquires fail
// with lockmgr.ErrAcquireTimeout instead of waiting forever (used by
// chaos harnesses to surface deadlocks as test failures).
func WithAcquireTimeout(d time.Duration) Option {
	return func(c *clusterConfig) { c.acqTimeout = d }
}

// WithGroupCommit routes every node's log appends through
// wal.GroupWriter: concurrent flush-mode committers share one log
// Append+Sync. (Eager update broadcasts always ship as one batch frame
// per peer per drain, with or without it.)
func WithGroupCommit() Option {
	return func(c *clusterConfig) { c.groupCommit = true }
}

// WithUncompressedUpdates disables DEFLATE payload compression of
// update frames: every batch ships as a plain MsgUpdateBatch. The
// ablation baseline for the wire bench, and what the paper harness runs
// so the §3.2 header ablation measures headers rather than DEFLATE;
// compression is otherwise on by default (with a size heuristic that
// skips small or incompressible batches).
func WithUncompressedUpdates() Option {
	return func(c *clusterConfig) { c.noCompress = true }
}

// WithTracing gives every node a trace ring of the given span capacity,
// recording the commit path (begin → lock → group-commit → disk → net →
// peer apply) for Cluster.Tracer to dump or inspect.
func WithTracing(capacity int) Option {
	return func(c *clusterConfig) { c.traceCap = capacity }
}

// WithMembership gives every node a heartbeat failure detector and an
// epoch fence on its update traffic: dead peers are evicted, their lock
// tokens reclaimed by the survivors, and delayed pre-eviction update
// frames are dropped at delivery. Use Cluster.Kill / Rejoin for live
// (non-quiesced-surgery) failure scenarios.
func WithMembership(o MembershipOptions) Option {
	return func(c *clusterConfig) { c.member = &o }
}

// WithLockMigration turns on dominant-writer lock-home migration on
// every node: a home that sees another node generate a decisive
// majority of a lock's demand hands that lock's queue and token-mint
// authority to it through a fenced three-message exchange. With
// WithMembership the migration epoch rides the membership epoch, so
// handoffs fenced before an eviction cannot land after it.
func WithLockMigration() Option {
	return func(c *clusterConfig) { c.migrate = true }
}

// WithInterestRouting narrows eager update broadcast to the peers that
// registered interest in the written locks (interest is seeded by lock
// acquisition and replayed on rejoin). Requires WithStore: the implied
// pull-on-stall path is the correctness backstop for peers that have
// not yet announced interest.
func WithInterestRouting() Option {
	return func(c *clusterConfig) {
		c.interest = true
		c.useStore = true
	}
}

// Cluster is a set of in-process nodes for experiments, examples, and
// tests. Production deployments wire the pieces directly (see
// cmd/storeserver and the package example).
type Cluster struct {
	cfg     *clusterConfig
	ids     []NodeID
	nodes   []*Node
	rvms    []*rvm.RVM
	meshes  []*netproto.TCPMesh
	hub     *netproto.Hub
	trs     []netproto.Transport
	srv     *store.Server
	replica *store.ReplicaPair
	clis    []*store.Client
	logs    []wal.Device
	datas   []rvm.DataStore       // non-store configs: per-node stores (survive Crash)
	tracers []*obs.Tracer         // nil without WithTracing; survive Restart
	mons    []*membership.Monitor // nil without WithMembership
	down    []bool
	// diskFault[i], when set, wraps every wal device node i attaches —
	// its own redo log and each peer log it reads during catch-up —
	// letting tests inject read-back corruption, fsync lies, or full
	// disks on one node's storage path (SetDiskFaultWrap).
	diskFault []func(node uint32, dev wal.Device) wal.Device

	regions map[RegionID]int // mapped via MapAll, for Restart re-mapping
	segs    []Segment        // registered via AddSegmentAll

	homeRing *lockmgr.Ring // prebuilt placement ring over ids (surgery loops)
}

// NewLocalCluster builds k nodes (ids 1..k) connected per the options.
func NewLocalCluster(k int, opts ...Option) (*Cluster, error) {
	if k < 1 {
		return nil, fmt.Errorf("lbc: cluster needs at least one node")
	}
	cfg := &clusterConfig{
		versioned:  map[int]bool{},
		seedImages: map[RegionID][]byte{},
	}
	for _, o := range opts {
		o(cfg)
	}

	cl := &Cluster{
		cfg:       cfg,
		nodes:     make([]*Node, k),
		rvms:      make([]*rvm.RVM, k),
		meshes:    make([]*netproto.TCPMesh, k),
		trs:       make([]netproto.Transport, k),
		clis:      make([]*store.Client, k),
		logs:      make([]wal.Device, k),
		datas:     make([]rvm.DataStore, k),
		tracers:   make([]*obs.Tracer, k),
		mons:      make([]*membership.Monitor, k),
		down:      make([]bool, k),
		diskFault: make([]func(node uint32, dev wal.Device) wal.Device, k),
		regions:   map[RegionID]int{},
	}
	cl.ids = make([]NodeID, k)
	for i := range cl.ids {
		cl.ids[i] = NodeID(i + 1)
	}
	cl.homeRing = lockmgr.NewRing(cl.ids)

	// Optional storage server.
	if cfg.useStore {
		if cfg.replicated {
			pair, err := store.NewReplicaPair("127.0.0.1:0", "127.0.0.1:0", store.ServerOptions{})
			if err != nil {
				return nil, err
			}
			cl.replica = pair
			cl.srv = pair.Primary
		} else {
			srv, err := store.NewServer("127.0.0.1:0", store.ServerOptions{})
			if err != nil {
				return nil, err
			}
			cl.srv = srv
		}
		seeded := []*store.Server{cl.srv}
		if cl.replica != nil {
			seeded = append(seeded, cl.replica.Backup) // so a failover finds the images
		}
		for id, img := range cfg.seedImages {
			for _, srv := range seeded {
				if err := srv.Data().StoreRegion(uint32(id), img); err != nil {
					cl.Close()
					return nil, err
				}
			}
		}
	}

	// Transport.
	if cfg.tcp {
		for i, id := range cl.ids {
			m, err := netproto.NewTCPMesh(id, "127.0.0.1:0", map[NodeID]string{})
			if err != nil {
				cl.Close()
				return nil, err
			}
			cl.meshes[i] = m
			cl.trs[i] = cl.wrapTransport(m)
		}
		for i, m := range cl.meshes {
			for j, o := range cl.meshes {
				if i != j {
					m.SetPeer(cl.ids[j], o.Addr())
				}
			}
		}
	} else {
		cl.hub = netproto.NewHub()
		for i, id := range cl.ids {
			cl.trs[i] = cl.wrapTransport(cl.hub.Endpoint(id))
		}
	}

	// Nodes.
	for i := range cl.ids {
		if err := cl.startNode(i, false); err != nil {
			cl.Close()
			return nil, err
		}
	}
	return cl, nil
}

// wrapTransport attaches the chaos injector to a raw transport, when
// one is configured.
func (c *Cluster) wrapTransport(tr netproto.Transport) netproto.Transport {
	if c.cfg.inj != nil {
		return chaos.WrapTransport(tr, c.cfg.inj)
	}
	return tr
}

// dialStore connects a node to the storage server. Under
// WithReplicatedStore the client fails over to the backup when the
// primary dies.
func (c *Cluster) dialStore() (*store.Client, error) {
	if c.replica != nil {
		return store.DialFailover(c.replica.Primary.Addr(), c.replica.Backup.Addr())
	}
	return store.Dial(c.srv.Addr())
}

// startNode builds node i's storage attachments, RVM instance, and
// coherency node on top of the already-built transport c.trs[i].
// With restart set it resumes the node's existing log (commit
// sequence continues past the pre-crash records).
func (c *Cluster) startNode(i int, restart bool) error {
	id := c.ids[i]
	cfg := c.cfg
	if cfg.traceCap > 0 && c.tracers[i] == nil {
		c.tracers[i] = obs.NewTracer(uint32(id), cfg.traceCap)
	}
	var log wal.Device
	var data rvm.DataStore
	var peerLogs coherency.PeerLogReader
	if cfg.useStore {
		cli, err := c.dialStore()
		if err != nil {
			return err
		}
		c.clis[i] = cli
		log = cli.LogDevice(uint32(id))
		data = cli
		peerLogs = func(node uint32) wal.Device { return cli.LogDevice(node) }
	} else {
		if restart {
			// Re-attach the node's surviving private devices.
			log = c.logs[i]
			data = c.datas[i]
		} else if cfg.diskLogDir != "" {
			var err error
			log, err = wal.OpenFileDevice(filepath.Join(cfg.diskLogDir, fmt.Sprintf("node-%d.log", id)))
			if err != nil {
				return err
			}
			data = rvm.NewMemStore()
		} else {
			log = wal.NewMemDevice()
			data = rvm.NewMemStore()
		}
		if !restart {
			for rid, img := range cfg.seedImages {
				if err := data.StoreRegion(uint32(rid), img); err != nil {
					return err
				}
			}
		}
	}
	c.logs[i] = log
	c.datas[i] = data
	if cfg.inj != nil && cfg.useStore {
		log = chaos.WrapDevice(log, cfg.inj, fmt.Sprintf("node-%d", id))
	}
	if wrap := c.diskFault[i]; wrap != nil {
		log = wrap(uint32(id), log)
		if peerLogs != nil {
			// Wrap each peer device exactly once and cache it: the
			// closure is called on every catch-up pass, and re-wrapping
			// would re-arm one-shot faults meant to fire a single time.
			base := peerLogs
			var mu sync.Mutex
			cache := map[uint32]wal.Device{}
			peerLogs = func(node uint32) wal.Device {
				mu.Lock()
				defer mu.Unlock()
				if d, ok := cache[node]; ok {
					return d
				}
				d := wrap(node, base(node))
				cache[node] = d
				return d
			}
		}
	}

	r, err := rvm.Open(rvm.Options{
		Node: uint32(id), Log: log, Data: data,
		Policy: cfg.policy, ResumeLog: restart,
		GroupCommit: cfg.groupCommit,
		Trace:       c.tracers[i],
	})
	if err != nil {
		return err
	}
	c.rvms[i] = r
	if cfg.tcp && c.meshes[i] != nil {
		// Send-retry exhaustion lands in the node's own accumulator.
		c.meshes[i].SetStats(r.Stats())
	}

	// Live membership: the monitor rides the (possibly chaos-wrapped)
	// transport directly — its control frames must reach evicted nodes
	// during rejoin — while coherency and the lock manager sit behind a
	// fence that epoch-tags update frames and quarantines the evicted.
	tr := c.trs[i]
	var mon *membership.Monitor
	if cfg.member != nil {
		mon = membership.New(membership.Config{
			Transport:    c.trs[i],
			Nodes:        c.ids,
			Clock:        cfg.member.Clock,
			SuspectAfter: cfg.member.SuspectAfter,
			EvictAfter:   cfg.member.EvictAfter,
			Stats:        r.Stats(),
			Trace:        c.tracers[i],
		})
		c.mons[i] = mon
		tr = membership.NewFence(c.trs[i], mon, r.Stats(), []uint8{
			coherency.MsgUpdateBatch, coherency.MsgUpdateBatchC,
		})
	}
	n, err := coherency.New(coherency.Options{
		RVM:             r,
		Transport:       tr,
		Nodes:           c.ids,
		Propagation:     cfg.propagation,
		Wire:            cfg.wire,
		PageSize:        cfg.pageSize,
		PeerLogs:        peerLogs,
		Versioned:       cfg.versioned[i],
		CheckLocks:      cfg.checkLocks,
		PullOnStall:     cfg.inj != nil && cfg.useStore,
		InterestRouting: cfg.interest,
		AcquireTimeout:  cfg.acqTimeout,
		NoCompress:      cfg.noCompress,
		Membership:      mon,
	})
	if err != nil {
		return err
	}
	if cfg.migrate {
		var epoch func() uint32
		if mon != nil {
			epoch = mon.Epoch
		}
		n.Locks().EnableMigration(epoch)
	}
	if mon != nil && cfg.member.Interval > 0 {
		mon.Start(cfg.member.Interval)
	}
	c.nodes[i] = n
	return nil
}

// Size returns the number of nodes.
func (c *Cluster) Size() int { return len(c.nodes) }

// Tracer returns node i's trace ring (nil without WithTracing). The
// ring survives Crash/Restart, so post-recovery spans append to the
// pre-crash history.
func (c *Cluster) Tracer(i int) *obs.Tracer { return c.tracers[i] }

// Node returns node i (0-based). Nil while the node is crashed.
func (c *Cluster) Node(i int) *Node { return c.nodes[i] }

// Down reports whether node i is currently crashed.
func (c *Cluster) Down(i int) bool { return c.down[i] }

// Log returns node i's redo-log device (for merging and recovery).
func (c *Cluster) Log(i int) wal.Device { return c.logs[i] }

// SetDiskFaultWrap installs a per-device fault wrapper on node i,
// applied the next time the node (re)attaches its storage: the node's
// own redo log and every peer log it opens during catch-up pass
// through wrap(owner, dev). Install it between Crash and Restart to
// model a node coming back on damaged media (see
// internal/fault.Device). A nil wrap clears the hook. Running nodes
// are unaffected until they restart.
func (c *Cluster) SetDiskFaultWrap(i int, wrap func(node uint32, dev wal.Device) wal.Device) {
	c.diskFault[i] = wrap
}

// Store returns the embedded storage server, if WithStore was used.
func (c *Cluster) Store() *store.Server { return c.srv }

// StoreBackup returns the backup server when WithReplicatedStore was
// used, or nil.
func (c *Cluster) StoreBackup() *store.Server {
	if c.replica == nil {
		return nil
	}
	return c.replica.Backup
}

// MapAll maps the region on every live node.
func (c *Cluster) MapAll(id RegionID, size int) error {
	c.regions[id] = size
	for i, n := range c.nodes {
		if c.down[i] {
			continue
		}
		if _, err := n.MapRegion(id, size); err != nil {
			return err
		}
	}
	return nil
}

// Barrier waits until every live node has seen every live peer's
// mapping of the region — the startup point after which eager
// broadcasts reach all caches.
func (c *Cluster) Barrier(id RegionID) error {
	live := 0
	for i := range c.nodes {
		if !c.down[i] {
			live++
		}
	}
	for i, n := range c.nodes {
		if c.down[i] {
			continue
		}
		if err := n.WaitPeers(id, live-1, 10*time.Second); err != nil {
			return err
		}
	}
	return nil
}

// AddSegmentAll registers the segment on every live node.
func (c *Cluster) AddSegmentAll(seg Segment) {
	c.segs = append(c.segs, seg)
	for i, n := range c.nodes {
		if !c.down[i] {
			n.AddSegment(seg)
		}
	}
}

// Checkpoint runs a fuzzy coordinated checkpoint from node i over
// every registered segment lock: the image sweep proceeds concurrently
// with commits, a short final quiesce stamps the durable marker, and
// every node's log head is trimmed online to its raced-commit tail.
// One checkpoint runs at a time: while one is in progress a second,
// from any node, fails at once (coherency.ErrCheckpointBusy) having
// done nothing.
func (c *Cluster) Checkpoint(i int, timeout time.Duration) error {
	if c.down[i] {
		return fmt.Errorf("lbc: checkpoint coordinator node %d is down", c.ids[i])
	}
	return c.nodes[i].CoordinatedCheckpoint(c.lockIDs(), timeout)
}

// lockIDs returns the registered segment lock ids in ascending order
// (the chaos harness's deterministic iteration order).
func (c *Cluster) lockIDs() []uint32 {
	ids := make([]uint32, 0, len(c.segs))
	for _, s := range c.segs {
		ids = append(ids, s.LockID)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// homeIndex returns the slice index of a lock's ring birth home (ids
// are 1..k in slice order). The placement ring is prebuilt once for
// the roster — the surgery paths resolve every registered lock in a
// loop.
func (c *Cluster) homeIndex(lockID uint32) int {
	home := c.homeRing.HomeOf(lockID)
	for i, id := range c.ids {
		if id == home {
			return i
		}
	}
	return 0
}

// actingHomeIndex resolves the node currently managing lockID for the
// crash-surgery paths: a live node's installed migration override
// when it names a live node other than `dying`, else the ring birth
// home. Queue-tail repair must land at the acting manager — with
// WithLockMigration a lock's role may have moved off its birth home,
// and repairing the birth home while an override routes requests
// elsewhere leaves the acting home pointing at the corpse.
func (c *Cluster) actingHomeIndex(lockID uint32, dying int) int {
	for j := range c.nodes {
		if c.down[j] || j == dying || c.nodes[j] == nil {
			continue
		}
		if h, ok := c.nodes[j].Locks().MigratedHome(lockID); ok {
			for i, id := range c.ids {
				if id == h && i != dying && !c.down[i] {
					return i
				}
			}
		}
	}
	return c.homeIndex(lockID)
}

// adopterFor picks the node that inherits a dying node's lock token:
// the lock's acting manager when alive, else the lowest-id live node.
func (c *Cluster) adopterFor(lockID uint32, dying int) int {
	mgr := c.actingHomeIndex(lockID, dying)
	if mgr != dying && !c.down[mgr] {
		return mgr
	}
	for i := range c.ids {
		if i != dying && !c.down[i] {
			return i
		}
	}
	return -1
}

// Crash kills node i: its coherency node, lock manager, transport
// endpoint, and store connection all go away; volatile state (lock
// tokens, interlock counters, cached images) is lost. Durable state —
// the node's redo log and the permanent images — survives. Lock
// tokens held by the dying node are volatile, so the supervisor
// relocates each one to a live node (the lock's manager when
// possible) and repairs the manager-side waiter queue; without this a
// crash would leave those locks unholdable forever.
//
// The cluster must be quiescent (no transactions or token passes in
// flight) when Crash is called; the harness crashes nodes only
// between rounds.
func (c *Cluster) Crash(i int) error {
	if c.down[i] {
		return fmt.Errorf("lbc: node %d already down", c.ids[i])
	}
	live := 0
	for j := range c.ids {
		if j != i && !c.down[j] {
			live++
		}
	}
	// Token surgery, while the dying node's state is still readable.
	// The queue tail is repaired at the acting manager — the migrated
	// home when one is installed, else the ring birth home — so a lock
	// whose role moved off its birth home does not keep forwarding
	// passes to the corpse.
	if live > 0 {
		for _, lockID := range c.lockIDs() {
			seq, lastWrite, have := c.nodes[i].Locks().TokenState(lockID)
			if !have {
				continue
			}
			ad := c.adopterFor(lockID, i)
			if ad < 0 {
				continue
			}
			c.nodes[ad].Locks().AdoptToken(lockID, seq, lastWrite)
			mgr := c.actingHomeIndex(lockID, i)
			if mgr != i && !c.down[mgr] {
				c.nodes[mgr].Locks().SetQueueTail(lockID, c.ids[ad])
			}
		}
		// Migration state aimed at the corpse is the supervisor's to
		// clean up here (no failure detector runs EvictPeer on this
		// path): overrides routing to it fall back to ring placement,
		// offers in flight to it abort.
		for j := range c.nodes {
			if j == i || c.down[j] {
				continue
			}
			c.nodes[j].Locks().DropMigratedHomesTo(c.ids[i])
		}
	}
	c.stopNode(i)
	return nil
}

// stopNode tears down node i's runtime state (shared by Crash and
// Kill): coherency node, detector, transport endpoint, store client.
func (c *Cluster) stopNode(i int) {
	if c.mons[i] != nil {
		c.mons[i].Close()
		c.mons[i] = nil
	}
	c.nodes[i].Close()
	c.nodes[i] = nil
	c.rvms[i] = nil
	if c.cfg.tcp {
		c.meshes[i].Close()
		c.meshes[i] = nil
	} else {
		c.hub.Drop(c.ids[i])
	}
	if c.clis[i] != nil {
		c.clis[i].Close()
		c.clis[i] = nil
	}
	c.down[i] = true
}

// Kill fails node i abruptly: no token surgery, no goodbye — exactly
// what a real crash looks like to the survivors. Requires
// WithMembership: the failure detector notices the silence, evicts the
// node, and the survivors reclaim its lock tokens on their own (unlike
// Crash, where a supervisor relocates tokens by fiat). Durable state
// survives for a later Rejoin.
func (c *Cluster) Kill(i int) error {
	if c.down[i] {
		return fmt.Errorf("lbc: node %d already down", c.ids[i])
	}
	if c.cfg.member == nil {
		return fmt.Errorf("lbc: Kill requires WithMembership (use Crash)")
	}
	c.stopNode(i)
	return nil
}

// Restart brings a crashed node back: a fresh transport endpoint and
// store connection, an RVM instance that resumes the node's surviving
// redo log (so new commits never reuse a pre-crash record identity),
// re-registered segments and region mappings, repaired lock-token
// bookkeeping, and a server-log catch-up that replays every committed
// record in merge order to rebuild the cached images and interlock
// state. Requires a store-backed cluster (WithStore /
// WithReplicatedStore): private in-memory images do not survive a
// crash, the server's logs do.
func (c *Cluster) Restart(i int) error {
	if !c.down[i] {
		return fmt.Errorf("lbc: node %d is not down", c.ids[i])
	}
	if !c.cfg.useStore {
		return fmt.Errorf("lbc: Restart requires a store-backed cluster")
	}
	if err := c.reattach(i); err != nil {
		return err
	}
	if err := c.rebuildWorkingSet(i); err != nil {
		return err
	}

	// Catch up from the server's logs: recovery proper (merge order,
	// interlock seeding) — the restarted cache converges with the
	// cluster before running new transactions.
	return c.nodes[i].CatchUp()
}

// reattach gives down node i a fresh transport endpoint and a node
// that resumes its durable state (startNode with restart set), and
// marks it up.
func (c *Cluster) reattach(i int) error {
	id := c.ids[i]
	if c.cfg.tcp {
		m, err := netproto.NewTCPMesh(id, "127.0.0.1:0", map[NodeID]string{})
		if err != nil {
			return err
		}
		for j, o := range c.meshes {
			if j == i || o == nil {
				continue
			}
			o.SetPeer(id, m.Addr())
			m.SetPeer(c.ids[j], o.Addr())
		}
		c.meshes[i] = m
		c.trs[i] = c.wrapTransport(m)
	} else {
		c.trs[i] = c.wrapTransport(c.hub.Endpoint(id))
	}
	if err := c.startNode(i, true); err != nil {
		return err
	}
	c.down[i] = false
	return nil
}

// rebuildWorkingSet restores reattached node i's coherency-layer
// working set: registered segments, region mappings, migration
// overrides and lock-token bookkeeping.
func (c *Cluster) rebuildWorkingSet(i int) error {
	id := c.ids[i]
	for _, seg := range c.segs {
		c.nodes[i].AddSegment(seg)
	}
	regs := make([]RegionID, 0, len(c.regions))
	for rid := range c.regions {
		regs = append(regs, rid)
	}
	sort.Slice(regs, func(a, b int) bool { return regs[a] < regs[b] })
	for _, rid := range regs {
		if _, err := c.nodes[i].MapRegion(rid, c.regions[rid]); err != nil {
			return err
		}
		for j := range c.ids {
			if j == i || c.down[j] {
				continue
			}
			// Seed both mapping tables directly: the returning node must
			// not wait on a best-effort announcement round (and while an
			// evicted node rejoins, survivor fences drop its
			// announcements until the ready Join).
			c.nodes[i].NotePeerRegion(c.ids[j], rid)
			c.nodes[j].NotePeerRegion(id, rid)
		}
	}

	// Migration overrides are volatile routing state the fresh manager
	// lost: reseed them from a survivor so the returning node routes
	// to acting homes instead of reclaiming migrated roles by ring
	// position. (Survivors agree on the override set — the handoff
	// broadcast is epoch-fenced — so any live view suffices.)
	c.reseedOverrides(i)

	// Lock surgery: a fresh manager believes it owns the token for
	// every lock it manages, but tokens relocated at crash time (or
	// reclaimed by the survivors while the node was evicted) live
	// elsewhere — forfeit those and point the waiter queue at the
	// current holder. The tail repair matters only when this node is
	// the acting manager; for a lock whose role migrated to a live
	// survivor, that survivor's queue state is intact and requests
	// from here forward to it through the reseeded override.
	for _, lockID := range c.lockIDs() {
		holder := -1
		for j := range c.ids {
			if j == i || c.down[j] {
				continue
			}
			if c.nodes[j].Locks().HasToken(lockID) {
				holder = j
				break
			}
		}
		if holder < 0 {
			continue // unused lock: the fresh manager's token is fine
		}
		if c.homeIndex(lockID) == i {
			c.nodes[i].Locks().ForfeitToken(lockID)
			if c.actingHomeIndex(lockID, -1) == i {
				c.nodes[i].Locks().SetQueueTail(lockID, c.ids[holder])
			}
		}
	}
	return nil
}

// reseedOverrides copies the migration overrides a live survivor
// holds onto freshly restarted node i (its own override table died
// with it). Overrides naming node i itself are skipped: the roles it
// held were dropped or reclaimed while it was down, and a home
// update or fresh handoff must re-establish them.
func (c *Cluster) reseedOverrides(i int) {
	for j := range c.nodes {
		if j == i || c.down[j] || c.nodes[j] == nil {
			continue
		}
		for lockID, home := range c.nodes[j].Locks().MigratedHomes() {
			if home == c.ids[i] {
				continue
			}
			c.nodes[i].Locks().InstallMigratedHome(lockID, home)
		}
		return
	}
}

// Rejoin brings a Killed (evicted) node back through the membership
// protocol: a fresh endpoint and node resume the durable state, a
// ready=false Join learns the cluster's current epoch (so outgoing
// update frames tag correctly while catching up), the server-log
// catch-up replays every committed record, and a ready=true Join asks
// the survivors to readmit the node — only then do their detectors
// mark it alive again and their broadcasts include it. No cluster
// restart, no supervisor token fiat: tokens the node once held now
// live with the survivors (reclaim), and the usual rejoin surgery
// points its manager-side queues at the current holders.
func (c *Cluster) Rejoin(i int) error {
	if !c.down[i] {
		return fmt.Errorf("lbc: node %d is not down", c.ids[i])
	}
	if c.cfg.member == nil {
		return fmt.Errorf("lbc: Rejoin requires WithMembership (use Restart)")
	}
	if !c.cfg.useStore {
		return fmt.Errorf("lbc: Rejoin requires a store-backed cluster")
	}
	id := c.ids[i]
	if err := c.reattach(i); err != nil {
		return err
	}
	mon := c.mons[i]

	// Phase one: learn the current epoch before any epoch-tagged frame
	// leaves this node — frames tagged with a stale epoch would be
	// fenced at every survivor.
	ep, err := mon.Join(false, 5*time.Second)
	if err != nil {
		return fmt.Errorf("lbc: rejoin node %d: %w", id, err)
	}
	mon.SetEpoch(ep)

	if err := c.rebuildWorkingSet(i); err != nil {
		return err
	}

	// Catch up from the server's logs to the cluster's current image.
	if err := c.nodes[i].CatchUp(); err != nil {
		return err
	}

	// Phase two: announce readiness. On return every reachable survivor
	// has readmitted this node (their OnRejoin callbacks restore it to
	// the broadcast sets) and its next acquire re-enters the token
	// protocol at the current epoch.
	if _, err := mon.Join(true, 5*time.Second); err != nil {
		return fmt.Errorf("lbc: rejoin node %d: %w", id, err)
	}
	return nil
}

// Membership returns node i's failure detector (nil without
// WithMembership, or while the node is down).
func (c *Cluster) Membership(i int) *membership.Monitor { return c.mons[i] }

// TickMembership runs one failure-detector round on every live node.
// Deterministic harnesses drive detection explicitly: advance the
// shared ManualClock, then tick.
func (c *Cluster) TickMembership() {
	for i, mon := range c.mons {
		if mon != nil && !c.down[i] {
			mon.Tick()
		}
	}
}

// AwaitEvicted blocks until every live node's detector has evicted
// node victim (the eviction broadcast and callbacks are asynchronous).
func (c *Cluster) AwaitEvicted(victim int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		all := true
		for i, mon := range c.mons {
			if mon == nil || c.down[i] || i == victim {
				continue
			}
			if !mon.Evicted(c.ids[victim]) {
				all = false
			}
		}
		if all {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("lbc: node %d not evicted everywhere after %v", c.ids[victim], timeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// AwaitLiveTokens blocks until every registered lock's token is owned
// by some live node — i.e. the survivors' reclaim protocol has
// finished re-minting whatever the dead took with it.
func (c *Cluster) AwaitLiveTokens(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		var stuck []uint32
		for _, lockID := range c.lockIDs() {
			found := false
			for j := range c.ids {
				if c.down[j] {
					continue
				}
				if c.nodes[j].Locks().HasToken(lockID) {
					found = true
					break
				}
			}
			if !found {
				stuck = append(stuck, lockID)
			}
		}
		if len(stuck) == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("lbc: locks %v have no live token holder after %v", stuck, timeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// FlushChaos delivers any reorder hold-backs still parked in the
// chaos injector on every live node's transport (no-op without
// WithChaos). Harnesses call it when quiescing.
func (c *Cluster) FlushChaos() error {
	for i, tr := range c.trs {
		if c.down[i] {
			continue
		}
		if ct, ok := tr.(*chaos.Transport); ok {
			if err := ct.Flush(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Close tears down nodes, transports, clients, and the server.
func (c *Cluster) Close() error {
	for _, mon := range c.mons {
		if mon != nil {
			mon.Close()
		}
	}
	for _, n := range c.nodes {
		if n != nil {
			n.Close()
		}
	}
	for _, m := range c.meshes {
		if m != nil {
			m.Close()
		}
	}
	if c.hub != nil {
		for _, id := range c.ids {
			c.hub.Drop(id)
		}
	}
	for _, cli := range c.clis {
		if cli != nil {
			cli.Close()
		}
	}
	if c.replica != nil {
		c.replica.Close()
	} else if c.srv != nil {
		c.srv.Close()
	}
	return nil
}
