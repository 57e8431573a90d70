package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// Idle probes: the benchmark calls one layer directly, with nothing
// else running, on inputs taken from the workload (its operation
// stream, its mean record size, the logs its last restart read). Each
// probe is bounded by a count, not a time, and takes a fraction of a
// second.

const (
	probeTxs     = 3000
	probeAppends = 2000
	probeEchoes  = 2000
	probeFrames  = 2000
	probeFrame   = 16 << 10
	probePasses  = 1000
	probeLogReps = 5
	msgEcho      = 0x3d // the mesh dispatches types below 0x40; lockmgr, coherency and membership use 0x10-0x32
	msgEchoReply = 0x3e
	msgStream    = 0x3f
)

// probeLocal replays the workload's stream on a one-node cluster with
// no store and no-flush commits: what is left is rvm's set_range and
// commit (collect + encode) and the lock manager's local grant.
func probeLocal(rep *report, cfg config) {
	cfg.local, cfg.traced, cfg.ring = true, true, false
	r, err := setup(cfg)
	if err != nil {
		rep.problem("local probe: %v", err)
		return
	}
	defer r.close()
	c := r.clients[0]
	var writes int64
	for i := 0; i < probeTxs; i++ {
		o := c.nextOwn()
		n, _ := o.writes()
		if o.kind == opBulk {
			n *= bulkLocks
		}
		if n > 0 {
			writes += int64(n) + int64(len(c.segsOf(o))) // payload ranges + one header per segment
		}
		r.exec(c, o, -1)
	}
	if c.failed > 0 {
		rep.problem("local probe: %d transactions failed: %v", c.failed, c.errs)
	}
	var commits []int64
	for _, s := range c.spans {
		if s.kind == spanCommit {
			commits = append(commits, s.end-s.start)
		}
	}
	t := totalSpans(r.clients)
	rep.metrics["rvm.set_range_ns"] = ratio(float64(t.ns[spanWrite]), float64(writes))
	rep.metrics["rvm.commit_noflush_us"] = usec(medianNS(commits))
	rep.metrics["lockmgr.local_acquire_ns"] = float64(medianNS(c.acq))
}

// probeStore times Append+Sync of the workload's mean record on a store
// client's log device at idle, then reads the log back.
func probeStore(rep *report, recordBytes int) {
	if recordBytes < 64 {
		recordBytes = 64
	}
	dev, closeAll, err := newStoreLog(9)
	if err != nil {
		rep.problem("store probe: %v", err)
		return
	}
	defer closeAll()
	rec := make([]byte, recordBytes)
	fillPattern(rec, 1, 1)
	ns := make([]int64, 0, probeAppends)
	for i := 0; i < probeAppends; i++ {
		t := time.Now()
		if _, err := dev.Append(rec); err == nil {
			err = dev.Sync()
		}
		if err != nil {
			rep.problem("store probe: %v", err)
			return
		}
		ns = append(ns, int64(time.Since(t)))
	}
	asc := sorted(ns)
	rep.metrics["store.append_sync_us_p50"] = usec(percentile(asc, 0.50))
	rep.metrics["store.append_sync_us_p99"] = usec(percentile(asc, 0.99))
	var reads []float64
	for i := 0; i < probeLogReps; i++ {
		t := time.Now()
		img, err := readLog(dev)
		if err != nil {
			rep.problem("store probe: read log: %v", err)
			return
		}
		reads = append(reads, float64(len(img))/1e6/time.Since(t).Seconds())
	}
	rep.metrics["store.read_log_mb_per_s"] = median(reads)
}

// probeNet measures the transport alone between two TCP meshes: the
// round trip of a 64-byte message and one-way 16 KiB frames.
func probeNet(rep *report) {
	a, b, err := newMeshPair()
	if err != nil {
		rep.problem("net probe: %v", err)
		return
	}
	defer a.Close()
	defer b.Close()
	echoed := make(chan struct{}, 1)
	var streamed atomic.Int64
	done := make(chan struct{})
	var once sync.Once
	b.Handle(msgEcho, func(from NodeID, p []byte) { _ = b.Send(from, msgEchoReply, p) })
	a.Handle(msgEchoReply, func(NodeID, []byte) { echoed <- struct{}{} })
	b.Handle(msgStream, func(_ NodeID, p []byte) {
		if streamed.Add(int64(len(p))) >= probeFrames*probeFrame {
			once.Do(func() { close(done) })
		}
	})
	small := make([]byte, 64)
	ns := make([]int64, 0, probeEchoes)
	for i := 0; i < probeEchoes; i++ {
		t := time.Now()
		if err := a.Send(2, msgEcho, small); err != nil {
			rep.problem("net probe: %v", err)
			return
		}
		select {
		case <-echoed:
		case <-time.After(opTimeout):
			rep.problem("net probe: echo timed out")
			return
		}
		ns = append(ns, int64(time.Since(t)))
	}
	rep.metrics["netproto.rtt_us_p50"] = usec(medianNS(ns))
	frame := make([]byte, probeFrame)
	t := time.Now()
	for i := 0; i < probeFrames; i++ {
		if err := a.Send(2, msgStream, frame); err != nil {
			rep.problem("net probe: %v", err)
			return
		}
	}
	select {
	case <-done:
	case <-time.After(opTimeout):
		rep.problem("net probe: stream timed out")
		return
	}
	rep.metrics["netproto.stream_mb_per_s"] = float64(probeFrames*probeFrame) / 1e6 / time.Since(t).Seconds()
}

// probePingPong alternates empty transactions on one lock between two
// nodes over TCP: every acquire is one token transfer and nothing else.
func probePingPong(rep *report) {
	cl, err := newTCPPair()
	if err != nil {
		rep.problem("ping-pong probe: %v", err)
		return
	}
	defer cl.Close()
	if err := cl.MapAll(regionID, 4096); err == nil {
		cl.AddSegmentAll(segment(0, 0, 4096))
		err = cl.Barrier(regionID)
	}
	if err != nil {
		rep.problem("ping-pong probe: %v", err)
		return
	}
	ns := make([]int64, 0, probePasses)
	for i := 0; i < probePasses; i++ {
		tx := cl.Node(i % 2).Begin(noRestore)
		t := time.Now()
		if err := tx.Acquire(0); err != nil {
			rep.problem("ping-pong probe: %v", err)
			return
		}
		ns = append(ns, int64(time.Since(t)))
		if _, err := tx.Commit(noFlush); err != nil {
			rep.problem("ping-pong probe: %v", err)
			return
		}
	}
	rep.metrics["lockmgr.token_pingpong_us"] = usec(medianNS(ns))
}

// probeLogs runs the wal scan, the log merge and recovery on the logs
// the drill's last restart read.
func probeLogs(rep *report, captured [][]byte) {
	var total, biggest int
	for i, img := range captured {
		total += len(img)
		if len(img) > len(captured[biggest]) {
			biggest = i
		}
	}
	if total == 0 {
		return
	}
	timed := func(fn func() error) float64 { // MB/s over all captured bytes, or the biggest log for the scan
		var rates []float64
		for i := 0; i < probeLogReps; i++ {
			t := time.Now()
			if err := fn(); err != nil {
				rep.problem("log probe: %v", err)
				return 0
			}
			rates = append(rates, 1/time.Since(t).Seconds())
		}
		return median(rates) / 1e6
	}
	devices := func() ([]Device, error) {
		devs := make([]Device, len(captured))
		for i, img := range captured {
			d, err := memLog(img)
			if err != nil {
				return nil, err
			}
			devs[i] = d
		}
		return devs, nil
	}
	devs, err := devices()
	if err != nil {
		rep.problem("log probe: %v", err)
		return
	}
	rep.metrics["wal.scan_mb_per_s"] = float64(len(captured[biggest])) * timed(func() error {
		_, err := scanLog(devs[biggest])
		return err
	})
	var merged Device
	rep.metrics["merge.merge_mb_per_s"] = float64(total) * timed(func() error {
		out, err := memLog(nil)
		if err != nil {
			return err
		}
		merged = out
		_, err = mergeLogs(out, devs...)
		return err
	})
	if merged == nil {
		return
	}
	rep.metrics["rvm.recover_mb_per_s"] = float64(total) * timed(func() error {
		_, err := recoverLog(merged)
		return err
	})
}
