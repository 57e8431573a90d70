// Benchmarks regenerating every table and figure of the paper's
// evaluation (§4). Each benchmark reports the measured phase
// decomposition on this host via ReportMetric; EXPERIMENTS.md records
// how the shapes compare with the published Alpha/AN1 results.
//
//	go test -bench 'Table2'  .   # Table 2: per-page operation costs
//	go test -bench 'Table3'  .   # Table 3: traversal characteristics
//	go test -bench 'Fig1'    .   # Figure 1: T12-A, T12-C
//	go test -bench 'Fig2'    .   # Figure 2: T2-A/B/C, T3-A
//	go test -bench 'Fig3'    .   # Figure 3: T3-B, T3-C
//	go test -bench 'Fig5'    .   # Figures 5/6: per-update set_range cost
//	go test -bench 'Fig7'    .   # Figure 7: breakeven updates/page
//	go test -bench 'Fig8'    .   # Figure 8: coherency vs recoverability
//	go test -bench 'Ablation'.   # design-choice ablations beyond the paper
package lbc_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	lbc "lbc"
	"lbc/internal/bench"
	"lbc/internal/coherency"
	"lbc/internal/costmodel"
	"lbc/internal/dsm"
	"lbc/internal/fault"
	"lbc/internal/metrics"
	"lbc/internal/netproto"
	"lbc/internal/oo7"
	"lbc/internal/rangetree"
	"lbc/internal/rvm"
	"lbc/internal/wal"
)

const pageSize = 8192

// --- Table 2: operation costs ------------------------------------------

func BenchmarkTable2PageCopy(b *testing.B) {
	src := make([]byte, 512<<20)
	dst := make([]byte, pageSize)
	pages := len(src) / pageSize
	b.SetBytes(pageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := (i * 7919 % pages) * pageSize
		copy(dst, src[off:off+pageSize])
	}
}

func BenchmarkTable2PageCopyWarm(b *testing.B) {
	src := make([]byte, pageSize)
	dst := make([]byte, pageSize)
	b.SetBytes(pageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(dst, src)
	}
}

func comparePage(a, t []byte) int {
	d := 0
	for i := range a {
		if a[i] != t[i] {
			d++
		}
	}
	return d
}

func BenchmarkTable2PageCompare(b *testing.B) {
	mem := make([]byte, 512<<20)
	twin := make([]byte, pageSize)
	pages := len(mem) / pageSize
	var sink int
	b.SetBytes(pageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := (i * 7919 % pages) * pageSize
		sink += comparePage(mem[off:off+pageSize], twin)
	}
	_ = sink
}

func BenchmarkTable2PageCompareWarm(b *testing.B) {
	mem := make([]byte, pageSize)
	twin := make([]byte, pageSize)
	var sink int
	b.SetBytes(pageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += comparePage(mem, twin)
	}
	_ = sink
}

func BenchmarkTable2PageSendTCP(b *testing.B) {
	m1, err := netproto.NewTCPMesh(1, "127.0.0.1:0", map[netproto.NodeID]string{})
	if err != nil {
		b.Fatal(err)
	}
	defer m1.Close()
	m2, err := netproto.NewTCPMesh(2, "127.0.0.1:0", map[netproto.NodeID]string{})
	if err != nil {
		b.Fatal(err)
	}
	defer m2.Close()
	m1.SetPeer(2, m2.Addr())
	got := make(chan struct{}, 1<<16)
	m2.Handle(1, func(netproto.NodeID, []byte) { got <- struct{}{} })
	page := make([]byte, pageSize)
	b.SetBytes(pageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m1.Send(2, 1, page); err != nil {
			b.Fatal(err)
		}
		<-got
	}
}

func BenchmarkTable2TrapHandling(b *testing.B) {
	if !fault.Supported() {
		b.Skip("no mprotect trap support on this platform")
	}
	// One warm measurement amortized over b.N (each cycle is a real
	// hardware fault + recover + mprotect pair).
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fault.TrapOnce(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table 3 and Figures 1-3: OO7 traversals ----------------------------

// reportRun publishes the run's phase decomposition and workload
// characteristics as benchmark metrics.
func reportRun(b *testing.B, res *bench.RunResult) {
	b.Helper()
	us := func(p metrics.Phase) float64 {
		return float64(res.Measured.Phase(p).Nanoseconds()) / 1e3
	}
	b.ReportMetric(us(metrics.PhaseDetect), "detect-us")
	b.ReportMetric(us(metrics.PhaseCollect), "collect-us")
	b.ReportMetric(us(metrics.PhaseNetIO), "net-us")
	b.ReportMetric(us(metrics.PhaseApply), "apply-us")
	b.ReportMetric(float64(res.Stats.Updates), "updates")
	b.ReportMetric(float64(res.Stats.UniqueBytes), "bytes-upd")
	b.ReportMetric(float64(res.Stats.MessageBytes), "msg-bytes")
	b.ReportMetric(float64(res.Stats.PagesUpdated), "pages")
	b.ReportMetric(res.ModeledAlpha.Total(), "alpha-model-us")
}

func benchTraversal(b *testing.B, traversal string, engine bench.EngineKind) {
	b.Helper()
	var last *bench.RunResult
	for i := 0; i < b.N; i++ {
		res, err := bench.Run(bench.RunConfig{
			Traversal: traversal,
			Engine:    engine,
			OO7:       oo7.Small(),
		})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	reportRun(b, last)
}

func benchFigure(b *testing.B, traversals []string) {
	b.Helper()
	for _, tr := range traversals {
		for _, e := range []bench.EngineKind{bench.EngineLog, bench.EngineCpyCmp, bench.EnginePage} {
			name := fmt.Sprintf("%s/%s", tr, e)
			b.Run(name, func(b *testing.B) { benchTraversal(b, tr, e) })
		}
	}
}

func BenchmarkTable3Characteristics(b *testing.B) {
	for _, tr := range bench.Traversals {
		b.Run(tr, func(b *testing.B) { benchTraversal(b, tr, bench.EngineLog) })
	}
}

func BenchmarkFig1SparseTraversals(b *testing.B) {
	benchFigure(b, []string{"T12-A", "T12-C"})
}

func BenchmarkFig2FullTraversals(b *testing.B) {
	benchFigure(b, []string{"T2-A", "T2-B", "T2-C", "T3-A"})
}

func BenchmarkFig3IndexTraversals(b *testing.B) {
	benchFigure(b, []string{"T3-B", "T3-C"})
}

// --- Figures 5/6: per-update set_range overhead --------------------------

func BenchmarkFig5PerUpdate(b *testing.B) {
	for _, n := range []int{1000, 5000, 50000, 300000} {
		for _, pat := range []bench.Pattern{bench.Unordered, bench.Ordered, bench.Redundant} {
			b.Run(fmt.Sprintf("%s/%d", pat, n), func(b *testing.B) {
				var us float64
				for i := 0; i < b.N; i++ {
					v, err := bench.PerUpdateCost(pat, n, rangetree.CoalesceExact)
					if err != nil {
						b.Fatal(err)
					}
					us = v
				}
				b.ReportMetric(us, "us/update")
			})
		}
	}
}

// --- Figure 7: breakeven curve (analytic + host trap) ---------------------

func BenchmarkFig7Breakeven(b *testing.B) {
	m := costmodel.Alpha()
	fastTrap := costmodel.FastTrap()
	var sink float64
	for i := 0; i < b.N; i++ {
		for c := 5.0; c <= 30; c += 2.5 {
			sink += m.BreakevenUpdatesPerPage(c) + fastTrap.BreakevenUpdatesPerPage(c)
		}
	}
	_ = sink
	b.ReportMetric(m.BreakevenUpdatesPerPage(18), "alpha-breakeven@18us")
	b.ReportMetric(fastTrap.BreakevenUpdatesPerPage(18), "fasttrap-breakeven@18us")
	if fault.Supported() {
		if d, err := fault.MeasureTrap(100); err == nil {
			host := m
			host.Trap = float64(d.Nanoseconds()) / 1e3
			b.ReportMetric(host.BreakevenUpdatesPerPage(18), "host-breakeven@18us")
		}
	}
}

// --- Figure 8: coherency vs recoverability --------------------------------

func BenchmarkFig8Configurations(b *testing.B) {
	configs := []struct {
		name string
		cfg  bench.RunConfig
	}{
		{"LogBasedCoherency", bench.RunConfig{Traversal: "T12-A", Engine: bench.EngineLog, OO7: oo7.Small()}},
		{"LogBasedCoherencyDisk", bench.RunConfig{Traversal: "T12-A", Engine: bench.EngineLog, OO7: oo7.Small(), DiskLog: b.TempDir()}},
		{"OptimizedRVM", bench.RunConfig{Traversal: "T12-A", Engine: bench.EngineLog, OO7: oo7.Small(), Nodes: 1}},
		{"StandardRVM", bench.RunConfig{Traversal: "T12-A", Engine: bench.EngineLog, OO7: oo7.Small(), Nodes: 1, Policy: rangetree.CoalesceFull}},
	}
	for _, c := range configs {
		b.Run(c.name, func(b *testing.B) {
			var last *bench.RunResult
			for i := 0; i < b.N; i++ {
				res, err := bench.Run(c.cfg)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			reportRun(b, last)
			b.ReportMetric(float64(last.Measured.Phase(metrics.PhaseDiskIO).Nanoseconds())/1e3, "disk-us")
		})
	}
}

// --- Ablations beyond the paper -------------------------------------------

// BenchmarkAblationEagerLazy compares eager broadcast with lazy
// server-pull propagation (§2.2's alternative policy).
func BenchmarkAblationEagerLazy(b *testing.B) {
	for _, mode := range []coherency.Propagation{coherency.Eager, coherency.Lazy} {
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runPingPong(b, 20, lbc.WithPropagation(mode), lbc.WithStore())
			}
		})
	}
}

// BenchmarkAblationHeaders compares compressed 4-24 B range headers
// with the standard 104 B headers on the wire (§3.2's compression).
// Frames ship without DEFLATE, which would otherwise fold the repeated
// standard headers away.
func BenchmarkAblationHeaders(b *testing.B) {
	for _, w := range []struct {
		name string
		wire coherency.WireFormat
	}{{"Compressed", coherency.Compressed}, {"Standard", coherency.Standard}} {
		b.Run(w.name, func(b *testing.B) {
			var sent int64
			for i := 0; i < b.N; i++ {
				sent = runPingPong(b, 20, lbc.WithWire(w.wire), lbc.WithUncompressedUpdates())
			}
			b.ReportMetric(float64(sent), "wire-bytes")
		})
	}
}

// BenchmarkAblationCoalesce compares the paper's exact-match set_range
// coalescing with standard RVM's full coalescing (§3.1's 5x claim).
func BenchmarkAblationCoalesce(b *testing.B) {
	for _, p := range []rangetree.Policy{rangetree.CoalesceExact, rangetree.CoalesceFull} {
		b.Run(p.String(), func(b *testing.B) {
			var us float64
			for i := 0; i < b.N; i++ {
				v, err := bench.PerUpdateCost(bench.Unordered, 20000, p)
				if err != nil {
					b.Fatal(err)
				}
				us = v
			}
			b.ReportMetric(us, "us/update")
		})
	}
}

// BenchmarkPeerScaling measures writer-side commit cost as the number
// of receiving peers grows (§4.3.1: "network I/O overhead of the
// writer increases linearly with the number of peer nodes").
func BenchmarkPeerScaling(b *testing.B) {
	for _, peers := range []int{1, 2, 3, 5, 7} {
		b.Run(fmt.Sprintf("peers-%d", peers), func(b *testing.B) {
			cluster, err := lbc.NewLocalCluster(peers+1, lbc.WithTCP())
			if err != nil {
				b.Fatal(err)
			}
			defer cluster.Close()
			if err := cluster.MapAll(1, 1<<16); err != nil {
				b.Fatal(err)
			}
			if err := cluster.Barrier(1); err != nil {
				b.Fatal(err)
			}
			w := cluster.Node(0)
			reg := w.RVM().Region(1)
			payload := make([]byte, 4000)
			// Warm up the per-peer connections so dial costs stay out
			// of the measured per-commit network time.
			for k := 0; k < 3; k++ {
				tx := w.Begin(lbc.NoRestore)
				if err := tx.Acquire(0); err != nil {
					b.Fatal(err)
				}
				if err := tx.Write(reg, 0, payload); err != nil {
					b.Fatal(err)
				}
				if _, err := tx.Commit(lbc.NoFlush); err != nil {
					b.Fatal(err)
				}
			}
			before := w.Stats().Snapshot()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tx := w.Begin(lbc.NoRestore)
				if err := tx.Acquire(0); err != nil {
					b.Fatal(err)
				}
				if err := tx.Write(reg, 0, payload); err != nil {
					b.Fatal(err)
				}
				if _, err := tx.Commit(lbc.NoFlush); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			diff := w.Stats().Snapshot().Sub(before)
			b.ReportMetric(float64(diff.Phase(metrics.PhaseNetIO).Nanoseconds())/1e3/float64(b.N), "net-us/commit")
		})
	}
}

// BenchmarkMultiWriterOO7 extends the paper's one-writer experiments:
// the OO7 design library is partitioned into W page-aligned segments,
// each under its own lock, and W nodes run T12-A over their partitions
// concurrently. Reported wall time is the slowest writer's; coherency
// keeps every node's cache identical throughout.
func BenchmarkMultiWriterOO7(b *testing.B) {
	for _, writers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("writers-%d", writers), func(b *testing.B) {
			img, err := bench.BuildImage(oo7.Small())
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				cluster, err := lbc.NewLocalCluster(writers, lbc.WithSeedImage(1, img))
				if err != nil {
					b.Fatal(err)
				}
				if err := cluster.MapAll(1, len(img)); err != nil {
					b.Fatal(err)
				}
				if err := cluster.Barrier(1); err != nil {
					b.Fatal(err)
				}
				db0, err := oo7.Open(cluster.Node(0).RVM().Region(1))
				if err != nil {
					b.Fatal(err)
				}
				nComp := db0.Config().NumComposite
				// Segment boundaries at composite cluster starts.
				for w := 0; w < writers; w++ {
					lo := db0.CompositeOffset(w * nComp / writers)
					hi := uint64(len(img))
					if w < writers-1 {
						hi = db0.CompositeOffset((w + 1) * nComp / writers)
					}
					cluster.AddSegmentAll(lbc.Segment{LockID: uint32(w), Region: 1, Off: lo, Len: hi - lo})
				}
				var wg sync.WaitGroup
				errs := make(chan error, writers)
				for w := 0; w < writers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						n := cluster.Node(w)
						db, err := oo7.Open(n.RVM().Region(1))
						if err != nil {
							errs <- err
							return
						}
						tx := n.Begin(lbc.NoRestore)
						if err := tx.Acquire(uint32(w)); err != nil {
							errs <- err
							return
						}
						if _, err := db.T12Partition(tx, w*nComp/writers, (w+1)*nComp/writers); err != nil {
							errs <- err
							return
						}
						if _, err := tx.Commit(lbc.NoFlush); err != nil {
							errs <- err
							return
						}
					}(w)
				}
				wg.Wait()
				close(errs)
				for err := range errs {
					b.Fatal(err)
				}
				// Quiesce and verify convergence.
				for ni := 0; ni < writers; ni++ {
					for w := 0; w < writers; w++ {
						tx := cluster.Node(ni).Begin(lbc.NoRestore)
						if err := tx.Acquire(uint32(w)); err != nil {
							b.Fatal(err)
						}
						tx.Commit(lbc.NoFlush)
					}
				}
				base := cluster.Node(0).RVM().Region(1).Bytes()
				for ni := 1; ni < writers; ni++ {
					if !bytesEqual(base, cluster.Node(ni).RVM().Region(1).Bytes()) {
						b.Fatal("writer caches diverged")
					}
				}
				cluster.Close()
			}
		})
	}
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// BenchmarkAblationAdaptive exercises the adaptive hybrid the paper's
// conclusion proposes (§6), against fixed Cpy/Cmp and fixed Page on a
// workload that alternates sparse and dense phases. The metric of
// interest is wire bytes: adaptive should track the better of the two
// fixed engines per phase.
func BenchmarkAblationAdaptive(b *testing.B) {
	type engine interface {
		Begin(*rvm.Region)
		OnWrite(uint64, uint32) error
		Commit() []wal.RangeRec
	}
	workload := func(b *testing.B, e engine) (wireBytes int64) {
		r, err := rvm.Open(rvm.Options{Node: 1})
		if err != nil {
			b.Fatal(err)
		}
		reg, err := r.Map(1, 64*8192)
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		for phase := 0; phase < 4; phase++ {
			dense := phase%2 == 1
			for tx := 0; tx < 8; tx++ {
				e.Begin(reg)
				for p := 0; p < 10; p++ {
					var off uint64
					var n uint32
					if dense {
						off, n = uint64(p*8192), 8000
					} else {
						off, n = uint64(p*8192+rng.Intn(8000)), 8
					}
					if err := e.OnWrite(off, n); err != nil {
						b.Fatal(err)
					}
					rng.Read(reg.Bytes()[off : off+uint64(n)])
				}
				for _, rec := range e.Commit() {
					wireBytes += int64(len(rec.Data))
				}
			}
		}
		return wireBytes
	}

	b.Run("CpyCmp", func(b *testing.B) {
		var wire int64
		for i := 0; i < b.N; i++ {
			wire = workload(b, dsm.New(dsm.Options{Mode: dsm.CpyCmp}))
		}
		b.ReportMetric(float64(wire), "wire-bytes")
	})
	b.Run("Page", func(b *testing.B) {
		var wire int64
		for i := 0; i < b.N; i++ {
			wire = workload(b, dsm.New(dsm.Options{Mode: dsm.Page}))
		}
		b.ReportMetric(float64(wire), "wire-bytes")
	})
	b.Run("Adaptive", func(b *testing.B) {
		var wire int64
		var switches int64
		for i := 0; i < b.N; i++ {
			e := dsm.NewAdaptive(costmodel.Alpha(), 8192, nil)
			wire = workload(b, e)
			switches = e.Switches()
		}
		b.ReportMetric(float64(wire), "wire-bytes")
		b.ReportMetric(float64(switches), "mode-switches")
	})
}

// runPingPong alternates locked writes between two nodes and returns
// the writer-side wire bytes.
func runPingPong(b *testing.B, rounds int, opts ...lbc.Option) int64 {
	b.Helper()
	cluster, err := lbc.NewLocalCluster(2, opts...)
	if err != nil {
		b.Fatal(err)
	}
	stats := [2]*metrics.Stats{cluster.Node(0).Stats(), cluster.Node(1).Stats()}
	func() {
		defer cluster.Close()
		if err := cluster.MapAll(1, 1<<16); err != nil {
			b.Fatal(err)
		}
		if err := cluster.Barrier(1); err != nil {
			b.Fatal(err)
		}
		payload := make([]byte, 64)
		for i := 0; i < rounds; i++ {
			n := cluster.Node(i % 2)
			tx := n.Begin(rvm.NoRestore)
			if err := tx.Acquire(0); err != nil {
				b.Fatal(err)
			}
			if err := tx.Write(n.RVM().Region(1), uint64(i*64), payload); err != nil {
				b.Fatal(err)
			}
			if _, err := tx.Commit(rvm.NoFlush); err != nil {
				b.Fatal(err)
			}
		}
	}()
	// Close drained every send window, so the last round's frame is
	// counted too.
	return stats[0].Counter(metrics.CtrBytesSent) + stats[1].Counter(metrics.CtrBytesSent)
}
