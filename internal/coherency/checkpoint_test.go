package coherency

import (
	"testing"
	"time"

	"lbc/internal/metrics"
	"lbc/internal/netproto"
	"lbc/internal/rvm"
	"lbc/internal/wal"
)

// checkpointCluster builds nodes whose logs and data stores are
// observable for trim assertions.
func checkpointCluster(t *testing.T, k int) ([]*Node, []*wal.MemDevice, []*rvm.MemStore) {
	t.Helper()
	hub := netproto.NewHub()
	ids := make([]netproto.NodeID, k)
	for i := range ids {
		ids[i] = netproto.NodeID(i + 1)
	}
	nodes := make([]*Node, k)
	logs := make([]*wal.MemDevice, k)
	stores := make([]*rvm.MemStore, k)
	for i := range ids {
		logs[i] = wal.NewMemDevice()
		stores[i] = rvm.NewMemStore()
		r, err := rvm.Open(rvm.Options{Node: uint32(ids[i]), Log: logs[i], Data: stores[i]})
		if err != nil {
			t.Fatal(err)
		}
		n, err := New(Options{RVM: r, Transport: hub.Endpoint(ids[i]), Nodes: ids})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
		t.Cleanup(func() { n.Close() })
	}
	for _, n := range nodes {
		if _, err := n.MapRegion(1, 1024); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range nodes {
		if err := n.WaitPeers(1, k-1, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	return nodes, logs, stores
}

func TestCoordinatedCheckpointTrimsAllLogs(t *testing.T) {
	nodes, logs, stores := checkpointCluster(t, 3)

	// Every node commits some writes under the shared lock.
	for i, n := range nodes {
		commitWrite(t, n, 1, uint64(i*16), []byte("checkpointed"))
	}
	for _, l := range logs {
		if sz, _ := l.Size(); sz == 0 {
			t.Fatal("expected non-empty logs before checkpoint")
		}
	}

	// Node 1 coordinates an online trim.
	if err := nodes[0].CoordinatedCheckpoint([]uint32{1}, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	for i, l := range logs {
		if sz, _ := l.Size(); sz != 0 {
			t.Fatalf("node %d log not trimmed (%d bytes)", i+1, sz)
		}
	}
	// The coordinator's store holds the checkpointed image with every
	// node's committed updates.
	img, err := stores[0].LoadRegion(1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if string(img[i*16:i*16+12]) != "checkpointed" {
			t.Fatalf("image missing node %d's update", i+1)
		}
	}
	// Peers counted a trim.
	if nodes[1].Stats().Counter("log_trims") != 1 || nodes[2].Stats().Counter("log_trims") != 1 {
		t.Fatal("peer trims not counted")
	}
}

func TestCheckpointThenRecoveryIsConsistent(t *testing.T) {
	nodes, logs, stores := checkpointCluster(t, 2)
	commitWrite(t, nodes[0], 1, 0, []byte("before-ckpt"))
	if err := nodes[0].CoordinatedCheckpoint([]uint32{1}, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint commits land in the (fresh) logs.
	commitWrite(t, nodes[1], 1, 100, []byte("after-ckpt"))

	// Recovery = checkpointed image + replay of the fresh log.
	res, err := rvm.Recover(logs[1], stores[0], rvm.RecoverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != 1 {
		t.Fatalf("replayed %d records, want 1 (post-checkpoint only)", res.Records)
	}
	img, _ := stores[0].LoadRegion(1)
	if string(img[0:11]) != "before-ckpt" || string(img[100:110]) != "after-ckpt" {
		t.Fatalf("recovered image wrong: %q / %q", img[0:11], img[100:110])
	}
}

func TestCheckpointSingleNode(t *testing.T) {
	hub := netproto.NewHub()
	r, _ := rvm.Open(rvm.Options{Node: 1})
	n, err := New(Options{RVM: r, Transport: hub.Endpoint(1), Nodes: []netproto.NodeID{1}})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if _, err := n.MapRegion(1, 256); err != nil {
		t.Fatal(err)
	}
	commitWrite(t, n, 1, 0, []byte("solo"))
	if err := n.CoordinatedCheckpoint([]uint32{1}, time.Second); err != nil {
		t.Fatal(err)
	}
	if sz, _ := n.RVM().Log().Size(); sz != 0 {
		t.Fatal("solo checkpoint did not trim")
	}
}

func TestCheckpointDoesNotDisturbCoherency(t *testing.T) {
	nodes, _, _ := checkpointCluster(t, 2)
	commitWrite(t, nodes[0], 1, 0, []byte("one"))
	if err := nodes[0].CoordinatedCheckpoint([]uint32{1}, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	commitWrite(t, nodes[1], 1, 0, []byte("two"))
	got := readUnder(t, nodes[0], 1, 0, 3)
	if string(got) != "two" {
		t.Fatalf("post-checkpoint coherency broken: %q", got)
	}
	_ = metrics.CtrTxCommitted
}

// BenchmarkCkptSpanDisabled prices one checkpoint span site (start +
// end) with tracing off: the per-lock site in the sweep loop must stay a
// few nanoseconds and never read the clock or allocate.
func BenchmarkCkptSpanDisabled(b *testing.B) {
	hub := netproto.NewHub()
	r, _ := rvm.Open(rvm.Options{Node: 1})
	n, err := New(Options{RVM: r, Transport: hub.Endpoint(1), Nodes: []netproto.NodeID{1}})
	if err != nil {
		b.Fatal(err)
	}
	defer n.Close()
	traced := n.trace.Enabled()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.ckptSpan(traced, 1, "ckpt.sweep.lock")(uint32(i), 4096)
	}
}
