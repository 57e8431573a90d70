// Package bench is the experiment harness behind the paper's
// evaluation (§4): it runs OO7 update traversals on a two-node cluster
// under the three coherency engines — Log (log-based coherency),
// Cpy/Cmp (twin/diff DSM), and Page (page-locking DSM) — and reports
// both measured phase costs on this host and modeled costs under the
// paper's Alpha/AN1 constants (internal/costmodel). cmd/oo7bench,
// cmd/figures, and the repository-root benchmarks are thin wrappers
// around it.
package bench

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"lbc/internal/coherency"
	"lbc/internal/costmodel"
	"lbc/internal/dsm"
	"lbc/internal/metrics"
	"lbc/internal/oo7"
	"lbc/internal/pheap"
	"lbc/internal/rangetree"
	"lbc/internal/rvm"
	"lbc/internal/wal"

	lbc "lbc"
)

// EngineKind selects the coherency engine for a run.
type EngineKind int

const (
	// EngineLog is log-based coherency (the paper's system).
	EngineLog EngineKind = iota
	// EngineCpyCmp is the copy/compare DSM baseline.
	EngineCpyCmp
	// EnginePage is the page-locking DSM baseline.
	EnginePage
)

func (e EngineKind) String() string {
	switch e {
	case EngineLog:
		return "Log"
	case EngineCpyCmp:
		return "Cpy/Cmp"
	case EnginePage:
		return "Page"
	default:
		return fmt.Sprintf("Engine(%d)", int(e))
	}
}

// Traversals lists the update traversals of Table 3 / Figures 1-3 in
// the paper's order.
var Traversals = []string{"T12-A", "T12-C", "T2-A", "T2-B", "T2-C", "T3-A", "T3-B", "T3-C"}

// RunTraversal dispatches a named traversal on db within tx.
func RunTraversal(db *oo7.DB, tx pheap.SetRanger, name string) (oo7.Result, error) {
	switch name {
	case "T12-A":
		return db.T12(tx, oo7.VariantA)
	case "T12-C":
		return db.T12(tx, oo7.VariantC)
	case "T2-A":
		return db.T2(tx, oo7.VariantA)
	case "T2-B":
		return db.T2(tx, oo7.VariantB)
	case "T2-C":
		return db.T2(tx, oo7.VariantC)
	case "T3-A":
		return db.T3(tx, oo7.VariantA)
	case "T3-B":
		return db.T3(tx, oo7.VariantB)
	case "T3-C":
		return db.T3(tx, oo7.VariantC)
	default:
		return oo7.Result{}, fmt.Errorf("bench: unknown traversal %q", name)
	}
}

// RunConfig describes one experiment run.
type RunConfig struct {
	Traversal string
	Engine    EngineKind
	OO7       oo7.Config
	// Nodes is the cluster size (default 2: one writer, one receiver).
	// 1 runs without coherency (Figure 8's RVM-only bars).
	Nodes int
	// TCP uses real loopback sockets (default true via Run; set
	// NoTCP for hermetic tests).
	NoTCP bool
	// DiskLog backs the redo log with a real file and flushes at
	// commit (Figure 8's "Disk" bar).
	DiskLog string // directory; empty = in-memory log
	// Policy selects set_range coalescing (Figure 8 ablation).
	Policy rangetree.Policy
	// Wire selects the coherency encoding (header ablation).
	Wire coherency.WireFormat
	// Propagation selects the update-propagation policy (§2.2
	// ablation): Eager (default), Lazy (implies a storage server), or
	// Piggyback.
	Propagation coherency.Propagation
	// AlphaPerUpdateUS is the per-update set_range cost used in the
	// Alpha-modeled Log decomposition (the paper's Figure 5 measures
	// ~13-18 us on the Alpha; default 15).
	AlphaPerUpdateUS float64
}

// RunResult reports one experiment run.
type RunResult struct {
	Config    RunConfig
	Traversal oo7.Result
	// Stats are the workload characteristics (Table 3 columns).
	Stats costmodel.TraversalStats
	// Measured is the phase decomposition observed on this host
	// (writer detect/collect/disk/net + receiver apply).
	Measured metrics.Snapshot
	// ModeledAlpha is the same decomposition priced with the paper's
	// Table 2 constants.
	ModeledAlpha costmodel.Breakdown
	// Wall is the writer-side wall time of the traversal+commit.
	Wall time.Duration
	// Faults counts simulated write faults (page engines only).
	Faults int64
	// sentUpdate records whether a coherency message actually left the
	// writer (Cpy/Cmp legitimately sends nothing when updates cancel
	// out, e.g. T12-C's even number of x/y swaps).
	sentUpdate bool
}

// imageCache memoizes built OO7 images per config: the build is
// deterministic, so benches that run dozens of configurations skip the
// rebuild.
var imageCache sync.Map // oo7.Config -> []byte

// BuildImage returns a pristine OO7 database image for the config.
func BuildImage(cfg oo7.Config) ([]byte, error) {
	if v, ok := imageCache.Load(cfg); ok {
		return v.([]byte), nil
	}
	r, err := rvm.Open(rvm.Options{Node: 99})
	if err != nil {
		return nil, err
	}
	reg, err := r.Map(1, oo7.RegionSize(cfg))
	if err != nil {
		return nil, err
	}
	tx := r.Begin(rvm.NoRestore)
	if _, err := oo7.Build(tx, reg, cfg); err != nil {
		return nil, err
	}
	if _, err := tx.Commit(rvm.NoFlush); err != nil {
		return nil, err
	}
	img := append([]byte(nil), reg.Bytes()...)
	imageCache.Store(cfg, img)
	return img, nil
}

// Run executes one experiment.
func Run(cfg RunConfig) (*RunResult, error) {
	if cfg.Nodes == 0 {
		cfg.Nodes = 2
	}
	if cfg.AlphaPerUpdateUS == 0 {
		cfg.AlphaPerUpdateUS = 15.0
	}
	img, err := BuildImage(cfg.OO7)
	if err != nil {
		return nil, fmt.Errorf("bench: build OO7 image: %w", err)
	}

	opts := []lbc.Option{
		lbc.WithSeedImage(1, img),
		lbc.WithSetRangePolicy(cfg.Policy),
		lbc.WithWire(cfg.Wire),
		lbc.WithPageSize(cfg.OO7.PageSize),
		lbc.WithPropagation(cfg.Propagation),
		// The paper's update messages are not DEFLATE-compressed, and
		// DEFLATE would fold away the repeated headers the §3.2 header
		// ablation measures.
		lbc.WithUncompressedUpdates(),
	}
	if !cfg.NoTCP {
		opts = append(opts, lbc.WithTCP())
	}
	if cfg.DiskLog != "" {
		opts = append(opts, lbc.WithDiskLog(cfg.DiskLog))
	}
	cluster, err := lbc.NewLocalCluster(cfg.Nodes, opts...)
	if err != nil {
		return nil, err
	}
	defer cluster.Close()
	if err := cluster.MapAll(1, len(img)); err != nil {
		return nil, err
	}
	if err := cluster.Barrier(1); err != nil {
		return nil, err
	}

	writer := cluster.Node(0)
	db, err := oo7.Open(writer.RVM().Region(1))
	if err != nil {
		return nil, err
	}

	res := &RunResult{Config: cfg}
	wBefore := writer.Stats().Snapshot()
	var rBefore metrics.Snapshot
	var receiver *lbc.Node
	if cfg.Nodes > 1 {
		receiver = cluster.Node(1)
		rBefore = receiver.Stats().Snapshot()
	}

	switch cfg.Engine {
	case EngineLog:
		err = res.runLog(cluster, writer, db, cfg)
	case EngineCpyCmp, EnginePage:
		err = res.runDSM(writer, db, cfg)
	default:
		err = fmt.Errorf("bench: unknown engine %v", cfg.Engine)
	}
	if err != nil {
		return nil, err
	}

	// Quiesce the receiver and fold its apply time in. Under lazy or
	// piggyback propagation updates only move on an acquire, so the
	// receiver takes the lock read-only first (pulling the pending
	// records), exactly as a reading client would.
	if receiver != nil && res.sentUpdate && cfg.Propagation != coherency.Eager {
		rtx := receiver.Begin(rvm.NoRestore)
		if err := rtx.Acquire(0); err != nil {
			return nil, fmt.Errorf("bench: receiver quiesce acquire: %w", err)
		}
		if err := rtx.Abort(); err != nil {
			return nil, err
		}
	}
	if res.sentUpdate && cfg.Propagation == coherency.Eager {
		// An eager update leaves on the writer's sender goroutine, which
		// charges the frame's network time before it counts the frame.
		if err := awaitCounter(writer.Stats(), metrics.CtrBatchFrames, wBefore.Counters[metrics.CtrBatchFrames]+1); err != nil {
			return nil, fmt.Errorf("bench: writer never sent the update: %w", err)
		}
	}
	wDiff := writer.Stats().Snapshot().Sub(wBefore)
	if receiver != nil && res.sentUpdate {
		if err := awaitCounter(receiver.Stats(), metrics.CtrRecordsApplied, rBefore.Counters[metrics.CtrRecordsApplied]+1); err != nil {
			return nil, fmt.Errorf("bench: receiver never applied the update: %w", err)
		}
		rDiff := receiver.Stats().Snapshot().Sub(rBefore)
		wDiff.Phases[metrics.PhaseApply] += rDiff.Phase(metrics.PhaseApply)
		for k, v := range rDiff.Counters {
			wDiff.Counters[k] += v
		}
	}
	res.Measured = wDiff

	// Modeled decomposition under the Alpha constants.
	model := costmodel.Alpha()
	switch cfg.Engine {
	case EngineLog:
		res.ModeledAlpha = model.DecomposeLog(res.Stats, cfg.AlphaPerUpdateUS)
	case EngineCpyCmp:
		res.ModeledAlpha = model.DecomposeCpyCmp(res.Stats)
	case EnginePage:
		res.ModeledAlpha = model.DecomposePage(res.Stats)
	}
	return res, nil
}

// awaitCounter waits until the named counter reaches want.
func awaitCounter(st *metrics.Stats, name string, want int64) error {
	deadline := time.Now().Add(30 * time.Second)
	for st.Counter(name) < want {
		if time.Now().After(deadline) {
			return fmt.Errorf("%s stuck at %d, want %d", name, st.Counter(name), want)
		}
		time.Sleep(100 * time.Microsecond)
	}
	return nil
}

// runLog drives the traversal through the full log-based coherency
// stack: one transaction under one segment lock, exactly as in §4.1.
func (r *RunResult) runLog(cluster *lbc.Cluster, writer *lbc.Node, db *oo7.DB, cfg RunConfig) error {
	commitMode := rvm.NoFlush
	if cfg.DiskLog != "" {
		commitMode = rvm.Flush
	}
	before := writer.Stats().Snapshot()
	start := time.Now()
	tx := writer.Begin(rvm.NoRestore)
	if err := tx.Acquire(0); err != nil {
		return err
	}
	tres, err := RunTraversal(db, tx, cfg.Traversal)
	if err != nil {
		return err
	}
	rec, err := tx.Commit(commitMode)
	if err != nil {
		return err
	}
	r.Wall = time.Since(start)
	r.Traversal = tres
	r.sentUpdate = rec.Wrote() && cfg.Nodes > 1
	diff := writer.Stats().Snapshot().Sub(before)
	r.Stats = costmodel.TraversalStats{
		Updates:      int(diff.Counters[metrics.CtrSetRangeCalls]),
		UniqueBytes:  rec.DataBytes(),
		MessageBytes: rec.DataBytes() + wal.CompressedHeaderBytes(rec),
		PagesUpdated: int(diff.Counters[metrics.CtrPagesTouched]),
	}
	return nil
}

// dsmTx adapts a DSM engine to the traversals' SetRanger interface:
// every declared write becomes a (potential) page fault.
type dsmTx struct {
	e     *dsm.Engine
	calls int
}

func (d *dsmTx) SetRange(_ *rvm.Region, off uint64, n uint32) error {
	d.calls++
	return d.e.OnWrite(off, n)
}

// runDSM drives the traversal through a page-based baseline engine and
// ships the result over the same wire path.
func (r *RunResult) runDSM(writer *lbc.Node, db *oo7.DB, cfg RunConfig) error {
	mode := dsm.CpyCmp
	if cfg.Engine == EnginePage {
		mode = dsm.Page
	}
	eng := dsm.New(dsm.Options{
		Mode:     mode,
		PageSize: cfg.OO7.PageSize,
		Stats:    writer.Stats(),
	})
	region := writer.RVM().Region(1)

	start := time.Now()
	eng.Begin(region)
	adapter := &dsmTx{e: eng}
	tres, err := RunTraversal(db, adapter, cfg.Traversal)
	if err != nil {
		return err
	}
	ranges := eng.Commit()
	rec := &wal.TxRecord{Node: uint32(writer.Self()), TxSeq: 1, Ranges: ranges}
	if cfg.Nodes > 1 && len(ranges) > 0 {
		writer.BroadcastRecord(rec)
		r.sentUpdate = true
	}
	r.Wall = time.Since(start)
	r.Traversal = tres
	r.Faults = eng.Faults()

	var msgBytes int
	if len(ranges) > 0 {
		msgBytes = rec.DataBytes() + wal.CompressedHeaderBytes(rec)
	}
	r.Stats = costmodel.TraversalStats{
		Updates:      adapter.calls,
		UniqueBytes:  rec.DataBytes(),
		MessageBytes: msgBytes,
		PagesUpdated: int(eng.Faults()),
	}
	return nil
}

// Pattern selects the set_range access pattern of Figures 5-6.
type Pattern int

const (
	// Unordered issues set_range calls at randomly permuted addresses
	// (full tree descent per call).
	Unordered Pattern = iota
	// Ordered issues calls in ascending address order (the §3.1
	// fast path).
	Ordered
	// Redundant re-declares the same range every call (exact-match
	// coalescing hit).
	Redundant
)

func (p Pattern) String() string {
	switch p {
	case Unordered:
		return "Unordered"
	case Ordered:
		return "Ordered"
	case Redundant:
		return "Redundant"
	default:
		return fmt.Sprintf("Pattern(%d)", int(p))
	}
}

// PerUpdateCost measures the per-update overhead of set_range plus
// commit collection for n updates in one transaction — the quantity
// plotted in Figures 5 and 6 (microseconds per update).
func PerUpdateCost(pat Pattern, n int, policy rangetree.Policy) (float64, error) {
	const stride = 16
	size := n*stride + 4096
	if pat == Redundant {
		size = 8192
	}
	r, err := rvm.Open(rvm.Options{Node: 1, Policy: policy})
	if err != nil {
		return 0, err
	}
	reg, err := r.Map(1, size)
	if err != nil {
		return 0, err
	}
	offs := make([]uint64, n)
	switch pat {
	case Ordered:
		for i := range offs {
			offs[i] = uint64(i * stride)
		}
	case Unordered:
		perm := rand.New(rand.NewSource(42)).Perm(n)
		for i, p := range perm {
			offs[i] = uint64(p * stride)
		}
	case Redundant:
		for i := range offs {
			offs[i] = 64
		}
	}
	tx := r.Begin(rvm.NoRestore)
	start := time.Now()
	for _, off := range offs {
		if err := tx.SetRange(reg, off, 8); err != nil {
			return 0, err
		}
	}
	if _, err := tx.Commit(rvm.NoFlush); err != nil {
		return 0, err
	}
	elapsed := time.Since(start)
	return float64(elapsed.Nanoseconds()) / 1e3 / float64(n), nil
}
