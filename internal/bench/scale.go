package bench

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"lbc/internal/coherency"
	"lbc/internal/metrics"
	"lbc/internal/netproto"
	"lbc/internal/rvm"
	"lbc/internal/store"
	"lbc/internal/wal"
)

// Scale sweep for the sharded coherency plane: clusters of 2..16
// in-process nodes run a skewed-ownership workload (each node mostly
// writes its own locks, occasionally a random peer's) twice per size —
// once with the full sharded plane (consistent-hash lock homes,
// lock-home migration, interest-routed updates) and once with the flat
// baseline (static homes, broadcast-to-all-mapped). Workers are
// closed-loop with a fixed think time, so throughput scales with node
// count as long as per-transaction latency stays flat; the headline
// numbers are the large/small-cluster throughput ratio and the
// update-frames-per-node cut from interest routing.

// ScalePoint is one cluster size's measurement.
type ScalePoint struct {
	Nodes      int     `json:"nodes"`
	TxPerSec   float64 `json:"tx_per_sec"`      // sharded plane
	FlatPerSec float64 `json:"flat_tx_per_sec"` // broadcast baseline

	// Mean update frames received per node over the run.
	FramesPerNode     float64 `json:"update_frames_per_node"`
	FlatFramesPerNode float64 `json:"flat_update_frames_per_node"`
	// FrameCut = flat / routed (how many-fold interest routing cut the
	// per-node receive load).
	FrameCut float64 `json:"frame_cut"`

	// Lock homes that moved to their dominant writer during the run.
	Migrations int64 `json:"lock_home_migrations"`
}

// ScaleBench is the BENCH_scale.json document.
type ScaleBench struct {
	Bench        string       `json:"bench"`
	TxPerWorker  int          `json:"tx_per_worker"`
	LocksPerNode int          `json:"locks_per_node"`
	OwnPct       int          `json:"own_write_pct"`
	ThinkUS      int          `json:"think_us"`
	Points       []ScalePoint `json:"points"`
}

// RunScaleBench sweeps the cluster sizes, one closed-loop worker per
// node committing txPerWorker transactions with thinkUS microseconds
// between them; ownPct percent of each worker's writes hit one of its
// own locksPerNode locks, the rest a uniformly random peer's lock.
func RunScaleBench(sizes []int, txPerWorker, locksPerNode, ownPct, thinkUS int) (*ScaleBench, error) {
	out := &ScaleBench{
		Bench: "scale", TxPerWorker: txPerWorker,
		LocksPerNode: locksPerNode, OwnPct: ownPct, ThinkUS: thinkUS,
	}
	for _, n := range sizes {
		var pt ScalePoint
		pt.Nodes = n
		for _, sharded := range []bool{false, true} {
			txps, frames, migs, err := runScaleLevel(n, txPerWorker, locksPerNode, ownPct, thinkUS, sharded)
			if err != nil {
				return nil, fmt.Errorf("bench: scale %d nodes (sharded=%v): %w", n, sharded, err)
			}
			if sharded {
				pt.TxPerSec = txps
				pt.FramesPerNode = frames
				pt.Migrations = migs
			} else {
				pt.FlatPerSec = txps
				pt.FlatFramesPerNode = frames
			}
		}
		if pt.FramesPerNode > 0 {
			pt.FrameCut = pt.FlatFramesPerNode / pt.FramesPerNode
		}
		out.Points = append(out.Points, pt)
	}
	return out, nil
}

// runScaleLevel runs one (size, mode) cell and returns committed
// transactions per second, mean update frames received per node, and
// total lock-home migrations.
func runScaleLevel(k, txPerWorker, locksPerNode, ownPct, thinkUS int, sharded bool) (float64, float64, int64, error) {
	srv, err := store.NewServer("127.0.0.1:0", store.ServerOptions{})
	if err != nil {
		return 0, 0, 0, err
	}
	defer srv.Close()

	hub := netproto.NewHub()
	ids := make([]netproto.NodeID, k)
	for i := range ids {
		ids[i] = netproto.NodeID(i + 1)
	}
	const segSize = 64
	const sharedLocks = 4 // global hot set for non-own writes
	totalLocks := k * locksPerNode

	nodes := make([]*coherency.Node, k)
	clients := make([]*store.Client, k)
	defer func() {
		for _, n := range nodes {
			if n != nil {
				n.Close()
			}
		}
		for _, c := range clients {
			if c != nil {
				c.Close()
			}
		}
	}()
	for i := range ids {
		cli, err := store.Dial(srv.Addr())
		if err != nil {
			return 0, 0, 0, err
		}
		clients[i] = cli
		r, err := rvm.Open(rvm.Options{
			Node: uint32(ids[i]),
			Log:  cli.LogDevice(uint32(ids[i])),
			Data: cli,
		})
		if err != nil {
			return 0, 0, 0, err
		}
		n, err := coherency.New(coherency.Options{
			RVM:             r,
			Transport:       hub.Endpoint(ids[i]),
			Nodes:           ids,
			InterestRouting: sharded,
			PeerLogs:        func(node uint32) wal.Device { return cli.LogDevice(node) },
			AcquireTimeout:  30 * time.Second,
		})
		if err != nil {
			return 0, 0, 0, err
		}
		if sharded {
			n.Locks().EnableMigration(nil)
		}
		nodes[i] = n
	}
	for _, n := range nodes {
		if _, err := n.MapRegion(1, totalLocks*segSize); err != nil {
			return 0, 0, 0, err
		}
	}
	for _, n := range nodes {
		if err := n.WaitPeers(1, k-1, 10*time.Second); err != nil {
			return 0, 0, 0, err
		}
	}

	// Skewed ownership: lock l belongs to node l%k, and worker w writes
	// its own locks ownPct% of the time. The rest hit a small global
	// shared set (the first sharedLocks lock IDs — think directory or
	// allocation-map locks): shared state every node occasionally
	// touches, while each node's remaining locks stay effectively
	// private to it.
	shared := sharedLocks
	if shared > k {
		shared = k
	}
	var wg sync.WaitGroup
	errs := make(chan error, k)
	think := time.Duration(thinkUS) * time.Microsecond
	start := time.Now()
	for w := 0; w < k; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)*7919 + 1))
			n := nodes[w]
			reg := n.RVM().Region(1)
			for i := 0; i < txPerWorker; i++ {
				lock := uint32(w + k*rng.Intn(locksPerNode))
				if rng.Intn(100) >= ownPct && k > 1 {
					lock = uint32(rng.Intn(shared))
				}
				tx := n.Begin(rvm.NoRestore)
				if err := tx.Acquire(lock); err != nil {
					errs <- fmt.Errorf("node %d acquire lock %d: %w", w+1, lock, err)
					return
				}
				off := uint64(lock)*segSize + uint64(i%4)*8
				if err := tx.Write(reg, off, []byte{byte(w), byte(i), byte(lock)}); err != nil {
					errs <- err
					return
				}
				if _, err := tx.Commit(rvm.NoFlush); err != nil {
					errs <- err
					return
				}
				time.Sleep(think)
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errs:
		return 0, 0, 0, err
	default:
	}

	var frames, migs int64
	for _, n := range nodes {
		frames += n.Stats().Counter(metrics.CtrUpdateFramesRecv)
		migs += n.Stats().Counter(metrics.CtrLockMigrations)
	}
	txps := float64(k*txPerWorker) / elapsed.Seconds()
	return txps, float64(frames) / float64(k), migs, nil
}

// WriteScaleBench writes the document to path as indented JSON.
func WriteScaleBench(b *ScaleBench, path string) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadScaleBench loads a BENCH_scale.json document.
func ReadScaleBench(path string) (*ScaleBench, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b ScaleBench
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("bench: parse %s: %w", path, err)
	}
	return &b, nil
}

// ScalingRatio returns the sharded plane's throughput at the largest
// cluster size over the smallest (the sweep's headline number).
func (b *ScaleBench) ScalingRatio() float64 {
	if len(b.Points) == 0 {
		return 0
	}
	lo, hi := b.Points[0], b.Points[0]
	for _, pt := range b.Points {
		if pt.Nodes < lo.Nodes {
			lo = pt
		}
		if pt.Nodes > hi.Nodes {
			hi = pt
		}
	}
	if lo.TxPerSec <= 0 {
		return 0
	}
	return hi.TxPerSec / lo.TxPerSec
}

// MaxFrameCut returns the largest interest-routing frame cut across
// the sweep (flat frames per node / routed frames per node).
func (b *ScaleBench) MaxFrameCut() float64 {
	var max float64
	for _, pt := range b.Points {
		if pt.FrameCut > max {
			max = pt.FrameCut
		}
	}
	return max
}

// CheckScaleBench is the scale-regression gate. Structural floors
// first: the sharded plane must scale at least minRatio from the
// smallest to the largest cluster, and interest routing must cut the
// per-node frame load somewhere in the sweep. Then the baseline
// comparison: the fresh scaling ratio must hold frac of the committed
// baseline's (maxima-style comparison, same tolerance rationale as
// CheckCommitBench).
func CheckScaleBench(fresh, baseline *ScaleBench, frac, minRatio float64) error {
	fr := fresh.ScalingRatio()
	if fr < minRatio {
		return fmt.Errorf("bench: scale floor: throughput ratio %.2fx < required %.2fx", fr, minRatio)
	}
	if fresh.MaxFrameCut() <= 1 {
		return fmt.Errorf("bench: interest routing cut no frames (max cut %.2fx <= 1)", fresh.MaxFrameCut())
	}
	br := baseline.ScalingRatio()
	if br <= 0 {
		return fmt.Errorf("bench: baseline has no scaling data")
	}
	if fr < br*frac {
		return fmt.Errorf("bench: scaling regression: fresh ratio %.2fx < %.0f%% of baseline %.2fx",
			fr, frac*100, br)
	}
	return nil
}
