package coherency

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"lbc/internal/metrics"
	"lbc/internal/netproto"
	"lbc/internal/rvm"
	"lbc/internal/wal"
)

// testCluster spins up k coherency nodes over an in-process hub, each
// with its own RVM instance, all mapping region 1 of the given size.
func testCluster(t testing.TB, k int, size int, opt func(i int, o *Options)) []*Node {
	t.Helper()
	hub := netproto.NewHub()
	ids := make([]netproto.NodeID, k)
	for i := range ids {
		ids[i] = netproto.NodeID(i + 1)
	}
	nodes := make([]*Node, k)
	for i := range ids {
		r, err := rvm.Open(rvm.Options{Node: uint32(ids[i])})
		if err != nil {
			t.Fatal(err)
		}
		o := Options{RVM: r, Transport: hub.Endpoint(ids[i]), Nodes: ids}
		if opt != nil {
			opt(i, &o)
		}
		n, err := New(o)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
		t.Cleanup(func() { n.Close() })
	}
	for _, n := range nodes {
		if _, err := n.MapRegion(1, size); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range nodes {
		if err := n.WaitPeers(1, k-1, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	return nodes
}

func region(t *testing.T, n *Node) *rvm.Region {
	t.Helper()
	reg := n.RVM().Region(1)
	if reg == nil {
		t.Fatal("region 1 not mapped")
	}
	return reg
}

// commitWrite runs one locked write transaction on node n.
func commitWrite(t *testing.T, n *Node, lockID uint32, off uint64, data []byte) {
	t.Helper()
	tx := n.Begin(rvm.NoRestore)
	if err := tx.Acquire(lockID); err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(region(t, n), off, data); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(rvm.NoFlush); err != nil {
		t.Fatal(err)
	}
}

// readUnder acquires the lock read-only (forcing the interlock) and
// returns a copy of the requested bytes.
func readUnder(t *testing.T, n *Node, lockID uint32, off uint64, ln int) []byte {
	t.Helper()
	tx := n.Begin(rvm.NoRestore)
	if err := tx.Acquire(lockID); err != nil {
		t.Fatal(err)
	}
	out := append([]byte(nil), region(t, n).Bytes()[off:off+uint64(ln)]...)
	if _, err := tx.Commit(rvm.NoFlush); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestEagerPropagation(t *testing.T) {
	nodes := testCluster(t, 2, 1024, nil)
	commitWrite(t, nodes[0], 1, 100, []byte("shared data"))
	got := readUnder(t, nodes[1], 1, 100, 11)
	if string(got) != "shared data" {
		t.Fatalf("peer sees %q", got)
	}
	if nodes[1].Stats().Counter(metrics.CtrRecordsApplied) != 1 {
		t.Fatal("record not applied at peer")
	}
}

func TestPingPongUpdates(t *testing.T) {
	nodes := testCluster(t, 2, 1024, nil)
	for i := 0; i < 20; i++ {
		w := nodes[i%2]
		commitWrite(t, w, 1, 0, []byte(fmt.Sprintf("round-%02d", i)))
		r := nodes[(i+1)%2]
		got := readUnder(t, r, 1, 0, 8)
		if string(got) != fmt.Sprintf("round-%02d", i) {
			t.Fatalf("round %d: reader sees %q", i, got)
		}
	}
}

func TestThreeNodeTokenOrdering(t *testing.T) {
	// The §3.4 A/B/C scenario: updates must apply in token order even
	// at nodes that never held the lock between the writes.
	nodes := testCluster(t, 3, 1024, nil)
	commitWrite(t, nodes[0], 1, 0, []byte("AAAA"))
	commitWrite(t, nodes[1], 1, 0, []byte("BBBB"))
	got := readUnder(t, nodes[2], 1, 0, 4)
	if string(got) != "BBBB" {
		t.Fatalf("node C sees %q, want final value BBBB", got)
	}
}

func TestOutOfOrderArrivalIsHeld(t *testing.T) {
	// Deliver two chained records to a node's applier in reverse
	// order; the second must be parked until its predecessor applies.
	nodes := testCluster(t, 2, 1024, nil)
	n := nodes[1]
	rec1 := &wal.TxRecord{
		Node: 9, TxSeq: 1,
		Locks:  []wal.LockRec{{LockID: 1, Seq: 1, PrevWriteSeq: 0, Wrote: true}},
		Ranges: []wal.RangeRec{{Region: 1, Off: 0, Data: []byte("1111")}},
	}
	rec2 := &wal.TxRecord{
		Node: 9, TxSeq: 2,
		Locks:  []wal.LockRec{{LockID: 1, Seq: 2, PrevWriteSeq: 1, Wrote: true}},
		Ranges: []wal.RangeRec{{Region: 1, Off: 0, Data: []byte("2222")}},
	}
	n.enqueue(copyRecord(rec2)) // arrives first, must wait
	// The Parked gauge is the applier's signal that it has processed
	// the record and shelved it behind the missing predecessor — a
	// deterministic stand-in for "give the applier time to misapply".
	waitFor(t, func() bool { return n.Parked() == 1 })
	if got := region(t, n).Bytes()[:4]; string(got) == "2222" {
		t.Fatal("record 2 applied before its predecessor")
	}
	n.enqueue(copyRecord(rec1))
	waitFor(t, func() bool { return n.Locks().Applied(1) == 2 })
	if got := string(region(t, n).Bytes()[:4]); got != "2222" {
		t.Fatalf("final value = %q", got)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestDuplicateRecordsIgnored(t *testing.T) {
	nodes := testCluster(t, 2, 1024, nil)
	n := nodes[1]
	rec := &wal.TxRecord{
		Node: 9, TxSeq: 1,
		Locks:  []wal.LockRec{{LockID: 1, Seq: 1, PrevWriteSeq: 0, Wrote: true}},
		Ranges: []wal.RangeRec{{Region: 1, Off: 0, Data: []byte("dupe")}},
	}
	n.enqueue(copyRecord(rec))
	n.enqueue(copyRecord(rec))
	waitFor(t, func() bool { return n.Stats().Counter(metrics.CtrRecordsApplied) >= 1 })
	// The duplicate is accounted as stale when the applier discards
	// it; waiting on the counter replaces a timing-based sleep.
	waitFor(t, func() bool { return n.Stats().Counter("records_stale") >= 1 })
	if got := n.Stats().Counter(metrics.CtrRecordsApplied); got != 1 {
		t.Fatalf("applied %d times", got)
	}
}

func TestPerSegmentWroteFlags(t *testing.T) {
	nodes := testCluster(t, 2, 2048, func(i int, o *Options) {})
	for _, n := range nodes {
		n.AddSegment(Segment{LockID: 1, Region: 1, Off: 0, Len: 1024})
		n.AddSegment(Segment{LockID: 2, Region: 1, Off: 1024, Len: 1024})
	}
	// Acquire both locks but write only segment 1.
	tx := nodes[0].Begin(rvm.NoRestore)
	if err := tx.Acquire(1); err != nil {
		t.Fatal(err)
	}
	if err := tx.Acquire(2); err != nil {
		t.Fatal(err)
	}
	tx.Write(region(t, nodes[0]), 10, []byte("seg1 only"))
	rec, err := tx.Commit(rvm.NoFlush)
	if err != nil {
		t.Fatal(err)
	}
	var l1, l2 wal.LockRec
	for _, l := range rec.Locks {
		if l.LockID == 1 {
			l1 = l
		} else {
			l2 = l
		}
	}
	if !l1.Wrote || l2.Wrote {
		t.Fatalf("wrote flags: l1=%v l2=%v", l1.Wrote, l2.Wrote)
	}
	// Lock 2's chain did not advance: node 2 can acquire it without
	// any interlock wait even before applying anything.
	g, err := nodes[1].Locks().Acquire(2)
	if err != nil || g.PrevWriteSeq != 0 {
		t.Fatalf("lock 2 grant = %+v, %v", g, err)
	}
}

func TestCheckLocksEnforcement(t *testing.T) {
	nodes := testCluster(t, 2, 2048, func(i int, o *Options) { o.CheckLocks = true })
	for _, n := range nodes {
		n.AddSegment(Segment{LockID: 1, Region: 1, Off: 0, Len: 1024})
	}
	tx := nodes[0].Begin(rvm.NoRestore)
	err := tx.SetRange(region(t, nodes[0]), 10, 8)
	if !errors.Is(err, ErrLockNotHeld) {
		t.Fatalf("unlocked write: %v", err)
	}
	// Outside any segment: allowed.
	if err := tx.SetRange(region(t, nodes[0]), 1500, 8); err != nil {
		t.Fatal(err)
	}
	if err := tx.Acquire(1); err != nil {
		t.Fatal(err)
	}
	if err := tx.SetRange(region(t, nodes[0]), 10, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(rvm.NoFlush); err != nil {
		t.Fatal(err)
	}
}

func TestAbortReleasesLocksWithoutChain(t *testing.T) {
	nodes := testCluster(t, 2, 1024, nil)
	tx := nodes[0].Begin(rvm.Restore)
	if err := tx.Acquire(1); err != nil {
		t.Fatal(err)
	}
	tx.Write(region(t, nodes[0]), 0, []byte("doomed"))
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(region(t, nodes[0]).Bytes()[:6], make([]byte, 6)) {
		t.Fatal("abort did not restore")
	}
	// Peer can acquire with no interlock wait (no write happened).
	g, err := nodes[1].Locks().Acquire(1)
	if err != nil || g.PrevWriteSeq != 0 {
		t.Fatalf("grant = %+v, %v", g, err)
	}
	// And no coherency traffic was generated.
	if nodes[0].Stats().Counter(metrics.CtrMsgsSent) != 0 {
		t.Fatal("aborted tx broadcast updates")
	}
}

func TestDoubleAcquireSameLockFails(t *testing.T) {
	nodes := testCluster(t, 2, 1024, nil)
	tx := nodes[0].Begin(rvm.NoRestore)
	if err := tx.Acquire(1); err != nil {
		t.Fatal(err)
	}
	if err := tx.Acquire(1); err == nil {
		t.Fatal("second acquire of same lock succeeded")
	}
	tx.Commit(rvm.NoFlush)
}

func TestVersionedModeBuffersUntilAccept(t *testing.T) {
	nodes := testCluster(t, 2, 1024, func(i int, o *Options) {
		if i == 1 {
			o.Versioned = true
		}
	})
	commitWrite(t, nodes[0], 1, 0, []byte("new version"))
	// Once the frame has arrived at node 2 the record must sit buffered.
	waitFor(t, func() bool { return nodes[1].Stats().Counter(metrics.CtrUpdateFramesRecv) >= 1 })
	if got := region(t, nodes[1]).Bytes()[:11]; string(got) == "new version" {
		t.Fatal("versioned node applied update before Accept")
	}
	if k := nodes[1].Accept(); k != 1 {
		t.Fatalf("Accept moved %d records", k)
	}
	waitFor(t, func() bool { return nodes[1].Locks().Applied(1) >= 1 })
	if got := string(region(t, nodes[1]).Bytes()[:11]); got != "new version" {
		t.Fatalf("after accept: %q", got)
	}
}

func TestVersionedAcquireImpliesAccept(t *testing.T) {
	nodes := testCluster(t, 2, 1024, func(i int, o *Options) {
		if i == 1 {
			o.Versioned = true
		}
	})
	commitWrite(t, nodes[0], 1, 0, []byte("forced"))
	waitFor(t, func() bool { return nodes[1].Stats().Counter(metrics.CtrUpdateFramesRecv) >= 1 })
	got := readUnder(t, nodes[1], 1, 0, 6)
	if string(got) != "forced" {
		t.Fatalf("acquire under versioned mode read %q", got)
	}
}

func TestSetVersionedOffFlushes(t *testing.T) {
	nodes := testCluster(t, 2, 1024, func(i int, o *Options) {
		if i == 1 {
			o.Versioned = true
		}
	})
	commitWrite(t, nodes[0], 1, 0, []byte("flush me"))
	waitFor(t, func() bool { return nodes[1].Stats().Counter(metrics.CtrUpdateFramesRecv) >= 1 })
	nodes[1].SetVersioned(false)
	waitFor(t, func() bool { return nodes[1].Locks().Applied(1) >= 1 })
	if got := string(region(t, nodes[1]).Bytes()[:8]); got != "flush me" {
		t.Fatalf("after flush: %q", got)
	}
}

func TestStandardWireFormat(t *testing.T) {
	nodes := testCluster(t, 2, 1024, func(i int, o *Options) { o.Wire = Standard })
	commitWrite(t, nodes[0], 1, 64, []byte("std headers"))
	got := readUnder(t, nodes[1], 1, 64, 11)
	if string(got) != "std headers" {
		t.Fatalf("peer sees %q", got)
	}
	// The frame carries the 104-byte standard range header. Raw bytes
	// are counted before DEFLATE, which would otherwise shrink it.
	waitFor(t, func() bool { return windowsDrained(nodes[0]) })
	if raw := nodes[0].Stats().Counter(metrics.CtrBytesSentRaw); raw < wal.StdRangeHeaderLen {
		t.Fatalf("sent only %d raw bytes with standard headers", raw)
	}
}

func TestBroadcastOnlyToMappedPeers(t *testing.T) {
	// Node 3 never maps region 1; it must receive nothing.
	hub := netproto.NewHub()
	ids := []netproto.NodeID{1, 2, 3}
	var nodes []*Node
	for _, id := range ids {
		r, _ := rvm.Open(rvm.Options{Node: uint32(id)})
		n, err := New(Options{RVM: r, Transport: hub.Endpoint(id), Nodes: ids})
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
		defer n.Close()
	}
	nodes[0].MapRegion(1, 1024)
	nodes[1].MapRegion(1, 1024)
	nodes[0].WaitPeers(1, 1, 5*time.Second)

	tx := nodes[0].Begin(rvm.NoRestore)
	if err := tx.Acquire(4); err != nil { // lock 4: manager nodes[4%3]=nodes[1]... any lock works
		t.Fatal(err)
	}
	tx.Write(nodes[0].RVM().Region(1), 0, []byte("targeted"))
	if _, err := tx.Commit(rvm.NoFlush); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return windowsDrained(nodes[0]) })
	if got := nodes[0].Stats().Counter(metrics.CtrMsgsSent); got != 1 {
		t.Fatalf("sent %d messages, want 1 (only the mapped peer)", got)
	}
	if got := nodes[0].Stats().Counter(metrics.BytesSentTo(3)); got != 0 {
		t.Fatalf("sent %d bytes to the unmapped peer", got)
	}
	waitFor(t, func() bool {
		return nodes[1].Stats().Counter(metrics.CtrRecordsApplied) == 1
	})
	if nodes[2].Stats().Counter(metrics.CtrRecordsApplied) != 0 {
		t.Fatal("unmapped node received updates")
	}
}

// TestPropertyConvergence is the system-level invariant: any schedule
// of locked writes from any node leaves every node's image identical
// once all updates have been applied.
func TestPropertyConvergence(t *testing.T) {
	const (
		kNodes = 3
		kLocks = 4
		segLen = 256
	)
	for trial := 0; trial < 5; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		nodes := testCluster(t, kNodes, kLocks*segLen, nil)
		for _, n := range nodes {
			for l := uint32(0); l < kLocks; l++ {
				n.AddSegment(Segment{LockID: l, Region: 1, Off: uint64(l) * segLen, Len: segLen})
			}
		}
		var wg sync.WaitGroup
		for i := range nodes {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				r := rand.New(rand.NewSource(int64(trial*100 + i)))
				for k := 0; k < 25; k++ {
					lock := uint32(r.Intn(kLocks))
					tx := nodes[i].Begin(rvm.NoRestore)
					if err := tx.Acquire(lock); err != nil {
						t.Error(err)
						return
					}
					off := uint64(lock)*segLen + uint64(r.Intn(segLen-16))
					data := make([]byte, r.Intn(15)+1)
					r.Read(data)
					if err := tx.Write(nodes[i].RVM().Region(1), off, data); err != nil {
						t.Error(err)
						return
					}
					if _, err := tx.Commit(rvm.NoFlush); err != nil {
						t.Error(err)
						return
					}
				}
			}(i)
		}
		wg.Wait()
		// Quiesce: every node acquires every lock read-only, which by
		// the interlock guarantees all writes are applied locally.
		for _, n := range nodes {
			for l := uint32(0); l < kLocks; l++ {
				tx := n.Begin(rvm.NoRestore)
				if err := tx.Acquire(l); err != nil {
					t.Fatal(err)
				}
				if _, err := tx.Commit(rvm.NoFlush); err != nil {
					t.Fatal(err)
				}
			}
		}
		base := nodes[0].RVM().Region(1).Bytes()
		for i := 1; i < kNodes; i++ {
			if !bytes.Equal(base, nodes[i].RVM().Region(1).Bytes()) {
				t.Fatalf("trial %d: node %d image diverged", trial, i+1)
			}
		}
		_ = rng
	}
}

func TestCountPages(t *testing.T) {
	mk := func(off uint64, n int) wal.RangeRec {
		return wal.RangeRec{Region: 1, Off: off, Data: make([]byte, n)}
	}
	cases := []struct {
		ranges []wal.RangeRec
		want   int
	}{
		{nil, 0},
		{[]wal.RangeRec{mk(0, 8)}, 1},
		{[]wal.RangeRec{mk(0, 8), mk(100, 8)}, 1},
		{[]wal.RangeRec{mk(0, 8), mk(8192, 8)}, 2},
		{[]wal.RangeRec{mk(8190, 8)}, 2},              // straddles a page boundary
		{[]wal.RangeRec{mk(0, 8192*3+1)}, 4},          // spans four pages
		{[]wal.RangeRec{mk(8000, 8), mk(8200, 8)}, 2}, // adjacent pages
	}
	for i, c := range cases {
		if got := countPages(c.ranges, 8192); got != c.want {
			t.Errorf("case %d: pages = %d, want %d", i, got, c.want)
		}
	}
}

func TestOptionsValidation(t *testing.T) {
	r, _ := rvm.Open(rvm.Options{Node: 1})
	hub := netproto.NewHub()
	if _, err := New(Options{}); err == nil {
		t.Fatal("empty options accepted")
	}
	if _, err := New(Options{RVM: r, Transport: hub.Endpoint(1)}); err == nil {
		t.Fatal("missing node list accepted")
	}
	if _, err := New(Options{RVM: r, Transport: hub.Endpoint(1),
		Nodes: []netproto.NodeID{1}, Propagation: Lazy}); err == nil {
		t.Fatal("lazy without PeerLogs accepted")
	}
}

func TestApplyErrorCounted(t *testing.T) {
	nodes := testCluster(t, 2, 64, nil)
	n := nodes[1]
	// Record that exceeds the region: must be dropped and counted, not
	// crash the applier.
	n.enqueue(copyRecord(&wal.TxRecord{
		Node: 9, TxSeq: 1,
		Ranges: []wal.RangeRec{{Region: 1, Off: 60, Data: []byte("overrun!")}},
	}))
	waitFor(t, func() bool { return n.Stats().Counter("apply_errors") == 1 })
	// The applier is still alive.
	commitWrite(t, nodes[0], 1, 0, []byte("ok"))
	if got := readUnder(t, n, 1, 0, 2); string(got) != "ok" {
		t.Fatalf("applier dead after error: %q", got)
	}
}

func TestDecodeErrorCounted(t *testing.T) {
	nodes := testCluster(t, 2, 64, nil)
	// Deliver garbage directly to the update handler.
	nodes[1].onUpdateBatch(1, []byte{0xde, 0xad})
	if nodes[1].Stats().Counter("decode_errors") != 1 {
		t.Fatal("decode error not counted")
	}
	// The error is also attributed to the sending node, so a poison
	// peer is identifiable from the metrics alone.
	if nodes[1].Stats().Counter(metrics.DecodeErrorsFrom(1)) != 1 {
		t.Fatal("decode error not attributed to sender")
	}
	if nodes[1].Stats().Counter(metrics.DecodeErrorsFrom(2)) != 0 {
		t.Fatal("decode error attributed to wrong sender")
	}
}

func TestAcceptInNonVersionedModeIsNoop(t *testing.T) {
	nodes := testCluster(t, 2, 64, nil)
	if k := nodes[0].Accept(); k != 0 {
		t.Fatalf("Accept = %d in eager mode", k)
	}
}

func TestSegmentOverlapsEdges(t *testing.T) {
	seg := Segment{LockID: 1, Region: 2, Off: 100, Len: 50}
	cases := []struct {
		region   rvm.RegionID
		off, end uint64
		want     bool
	}{
		{2, 100, 150, true},
		{2, 99, 100, false},  // ends exactly at segment start
		{2, 150, 160, false}, // begins exactly at segment end
		{2, 149, 150, true},
		{3, 100, 150, false}, // other region
		{2, 0, 1000, true},   // contains segment
	}
	for i, c := range cases {
		if got := seg.overlaps(c.region, c.off, c.end); got != c.want {
			t.Errorf("case %d: overlaps = %v, want %v", i, got, c.want)
		}
	}
}

func TestNodeCloseIdempotent(t *testing.T) {
	nodes := testCluster(t, 2, 64, nil)
	if err := nodes[0].Close(); err != nil {
		t.Fatal(err)
	}
	if err := nodes[0].Close(); err != nil {
		t.Fatal(err)
	}
	// Acquire on a closed node fails rather than hanging.
	tx := nodes[0].Begin(rvm.NoRestore)
	if err := tx.Acquire(1); err == nil {
		t.Fatal("acquire succeeded on closed node")
	}
}

func TestSharedReadTransactions(t *testing.T) {
	nodes := testCluster(t, 2, 1024, nil)
	commitWrite(t, nodes[0], 1, 0, []byte("published"))

	// Two concurrent readers on node 2 share the lock and both observe
	// the writer's update (the interlock applies to shared acquires).
	var wg sync.WaitGroup
	hold := make(chan struct{})
	inside := make(chan struct{}, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tx := nodes[1].Begin(rvm.NoRestore)
			if err := tx.AcquireShared(1); err != nil {
				t.Error(err)
				return
			}
			if got := string(region(t, nodes[1]).Bytes()[:9]); got != "published" {
				t.Errorf("reader sees %q", got)
			}
			inside <- struct{}{}
			<-hold
			if _, err := tx.Commit(rvm.NoFlush); err != nil {
				t.Error(err)
			}
		}()
	}
	// Both readers must be inside simultaneously.
	for i := 0; i < 2; i++ {
		select {
		case <-inside:
		case <-time.After(5 * time.Second):
			t.Fatal("readers did not overlap")
		}
	}
	close(hold)
	wg.Wait()
	if nodes[1].Locks().Readers(1) != 0 {
		t.Fatal("shared holds leaked past commit")
	}
}

func TestSharedThenWriterProceeds(t *testing.T) {
	nodes := testCluster(t, 2, 1024, nil)
	tx := nodes[0].Begin(rvm.NoRestore)
	if err := tx.AcquireShared(1); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(rvm.NoFlush); err != nil {
		t.Fatal(err)
	}
	// A writer on the peer gets the token normally afterwards.
	commitWrite(t, nodes[1], 1, 0, []byte("after-readers"))
	got := readUnder(t, nodes[0], 1, 0, 13)
	if string(got) != "after-readers" {
		t.Fatalf("got %q", got)
	}
}

func TestSharedAbortReleases(t *testing.T) {
	nodes := testCluster(t, 2, 1024, nil)
	tx := nodes[0].Begin(rvm.Restore)
	if err := tx.AcquireShared(1); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if nodes[0].Locks().Readers(1) != 0 {
		t.Fatal("abort leaked shared hold")
	}
}

func TestSharedDoubleAcquireFails(t *testing.T) {
	nodes := testCluster(t, 2, 1024, nil)
	tx := nodes[0].Begin(rvm.NoRestore)
	if err := tx.AcquireShared(1); err != nil {
		t.Fatal(err)
	}
	if err := tx.AcquireShared(1); err == nil {
		t.Fatal("double shared acquire accepted")
	}
	tx.Commit(rvm.NoFlush)
}
