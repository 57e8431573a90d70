package coherency

import (
	"fmt"
	"testing"
	"time"

	"lbc/internal/lockmgr"
	"lbc/internal/metrics"
	"lbc/internal/netproto"
	"lbc/internal/rvm"
	"lbc/internal/store"
	"lbc/internal/wal"
)

// interestCluster builds k eager nodes with interest routing enabled,
// store-backed so the implied pull-on-stall path has logs to pull.
func interestCluster(t *testing.T, k int, size int) []*Node {
	t.Helper()
	srv, err := store.NewServer("127.0.0.1:0", store.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	hub := netproto.NewHub()
	ids := make([]netproto.NodeID, k)
	for i := range ids {
		ids[i] = netproto.NodeID(i + 1)
	}
	nodes := make([]*Node, k)
	for i := range ids {
		cli, err := store.Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cli.Close() })
		r, err := rvm.Open(rvm.Options{
			Node: uint32(ids[i]),
			Log:  cli.LogDevice(uint32(ids[i])),
			Data: cli,
		})
		if err != nil {
			t.Fatal(err)
		}
		n, err := New(Options{
			RVM:             r,
			Transport:       hub.Endpoint(ids[i]),
			Nodes:           ids,
			InterestRouting: true,
			PeerLogs:        func(node uint32) wal.Device { return cli.LogDevice(node) },
		})
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

func TestInterestRoutingRequiresPeerLogs(t *testing.T) {
	hub := netproto.NewHub()
	r, _ := rvm.Open(rvm.Options{Node: 1})
	_, err := New(Options{
		RVM: r, Transport: hub.Endpoint(1), Nodes: []netproto.NodeID{1},
		InterestRouting: true,
	})
	if err == nil {
		t.Fatal("InterestRouting without PeerLogs accepted")
	}
}

// TestInterestRoutingCutsFrames: updates route only to peers that
// registered interest via acquisition; an uninterested peer receives
// zero frames yet still observes the data when it finally acquires
// (the pull backstop), after which frames route to it too.
func TestInterestRoutingCutsFrames(t *testing.T) {
	nodes := interestCluster(t, 3, 1024)
	lock := uint32(0)
	for lockmgr.HomeOf([]netproto.NodeID{1, 2, 3}, lock) != 1 {
		lock++
	}

	// Node 2 touches the lock once: that acquire registers interest.
	if got := readUnder(t, nodes[1], lock, 0, 4); string(got) != "\x00\x00\x00\x00" {
		t.Fatalf("initial read = %q", got)
	}
	waitFor(t, func() bool { return nodes[0].InterestedIn(lock, 2) })

	for i := 0; i < 5; i++ {
		commitWrite(t, nodes[0], lock, 0, []byte(fmt.Sprintf("write-%d", i)))
	}
	waitFor(t, func() bool { return nodes[1].Locks().Applied(lock) >= 6 })

	waitFor(t, func() bool { return windowsDrained(nodes[0]) })
	if got := nodes[0].Stats().Counter(metrics.BytesSentTo(3)); got != 0 {
		t.Fatalf("uninterested node 3 was sent %d bytes, want 0", got)
	}
	// Commits that land while a frame is on the wire share the next one,
	// so count records, not frames: all five went to node 2.
	if got := nodes[0].Stats().Counter(metrics.CtrBatchRecords); got < 5 {
		t.Fatalf("writer shipped %d records to interested node 2, want >= 5", got)
	}

	// The never-sent peer still reads the newest value: its acquire
	// pulls the missed records from the server logs.
	if got := readUnder(t, nodes[2], lock, 0, 7); string(got) != "write-4" {
		t.Fatalf("pull backstop: node 3 reads %q, want %q", got, "write-4")
	}
	// That acquire registered node 3's interest; new frames now arrive.
	waitFor(t, func() bool { return nodes[0].InterestedIn(lock, 3) })
	commitWrite(t, nodes[0], lock, 0, []byte("write-5"))
	waitFor(t, func() bool {
		return nodes[2].Stats().Counter(metrics.CtrUpdateFramesRecv) >= 1
	})
}

// TestDropInterestStopsRoutedUpdates: withdrawing interest stops the
// frames; correctness survives because the next acquire pulls.
func TestDropInterestStopsRoutedUpdates(t *testing.T) {
	nodes := interestCluster(t, 2, 1024)
	lock := uint32(0)
	for lockmgr.HomeOf([]netproto.NodeID{1, 2}, lock) != 1 {
		lock++
	}

	readUnder(t, nodes[1], lock, 0, 4)
	waitFor(t, func() bool { return nodes[0].InterestedIn(lock, 2) })
	commitWrite(t, nodes[0], lock, 0, []byte("before-drop"))
	waitFor(t, func() bool {
		return nodes[1].Stats().Counter(metrics.CtrUpdateFramesRecv) >= 1
	})

	nodes[1].DropInterest(lock)
	waitFor(t, func() bool { return !nodes[0].InterestedIn(lock, 2) })
	waitFor(t, func() bool { return windowsDrained(nodes[0]) })
	baseline := nodes[0].Stats().Counter(metrics.BytesSentTo(2))
	for i := 0; i < 3; i++ {
		commitWrite(t, nodes[0], lock, 0, []byte("after-drop-x"))
	}
	// Recipients are chosen inside Commit: with the windows drained, any
	// frame those commits admitted for node 2 has been counted.
	waitFor(t, func() bool { return windowsDrained(nodes[0]) })
	if got := nodes[0].Stats().Counter(metrics.BytesSentTo(2)); got != baseline {
		t.Fatalf("dropped peer was still sent %d bytes", got-baseline)
	}
	if got := readUnder(t, nodes[1], lock, 0, 12); string(got) != "after-drop-x" {
		t.Fatalf("post-drop read = %q", got)
	}
}

// TestEvictionPurgesInterest: an evicted peer is removed from every
// survivor's interest table, so nothing routes to it while it is out.
func TestEvictionPurgesInterest(t *testing.T) {
	nodes := interestCluster(t, 3, 1024)
	lock := uint32(0)
	for lockmgr.HomeOf([]netproto.NodeID{1, 2, 3}, lock) != 1 {
		lock++
	}

	readUnder(t, nodes[2], lock, 0, 4)
	waitFor(t, func() bool { return nodes[0].InterestedIn(lock, 3) })

	// The membership path (handleEvict) purges the victim on every
	// survivor; drive the purge directly here.
	nodes[0].purgeInterest(3)
	nodes[1].purgeInterest(3)
	if nodes[0].InterestedIn(lock, 3) {
		t.Fatal("victim still in the interest table after purge")
	}
	waitFor(t, func() bool { return windowsDrained(nodes[0]) })
	before := nodes[0].Stats().Counter(metrics.BytesSentTo(3))
	commitWrite(t, nodes[0], lock, 0, []byte("post-evict"))
	waitFor(t, func() bool { return windowsDrained(nodes[0]) })
	if got := nodes[0].Stats().Counter(metrics.BytesSentTo(3)); got != before {
		t.Fatalf("evicted peer was sent %d routed bytes", got-before)
	}
}

// TestRejoinerReregistersInterestThroughCatchUp: a restarted node's
// CatchUp replays its own logged writes and re-announces interest in
// those locks, so routed updates reach it again without a new acquire.
func TestRejoinerReregistersInterestThroughCatchUp(t *testing.T) {
	srv, err := store.NewServer("127.0.0.1:0", store.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ids := []netproto.NodeID{1, 2}
	// A lock whose birth home is node 2, the node that restarts: its
	// session-1 acquires are local (node 1 is not up yet).
	lock := uint32(0)
	for lockmgr.HomeOf(ids, lock) != 2 {
		lock++
	}

	mkNode := func(hub *netproto.Hub, id netproto.NodeID) *Node {
		cli, err := store.Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cli.Close() })
		r, err := rvm.Open(rvm.Options{Node: uint32(id), Log: cli.LogDevice(uint32(id)), Data: cli})
		if err != nil {
			t.Fatal(err)
		}
		n, err := New(Options{
			RVM: r, Transport: hub.Endpoint(id), Nodes: ids,
			InterestRouting: true,
			PeerLogs:        func(node uint32) wal.Device { return cli.LogDevice(node) },
		})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}

	// Session 1: node 2 alone writes under the lock, then "crashes".
	hub1 := netproto.NewHub()
	n2 := mkNode(hub1, 2)
	if _, err := n2.MapRegion(1, 1024); err != nil {
		t.Fatal(err)
	}
	tx := n2.Begin(rvm.NoRestore)
	if err := tx.Acquire(lock); err != nil {
		t.Fatal(err)
	}
	tx.Write(n2.RVM().Region(1), 0, []byte("pre-crash"))
	if _, err := tx.Commit(rvm.Flush); err != nil {
		t.Fatal(err)
	}
	n2.Close()

	// Session 2: both nodes start fresh; node 2's image is stale and
	// its in-memory interest state is gone.
	hub2 := netproto.NewHub()
	n1b := mkNode(hub2, 1)
	defer n1b.Close()
	n2b := mkNode(hub2, 2)
	defer n2b.Close()
	for _, n := range []*Node{n1b, n2b} {
		if _, err := n.MapRegion(1, 1024); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range []*Node{n1b, n2b} {
		if err := n.WaitPeers(1, 1, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if err := n2b.CatchUp(); err != nil {
		t.Fatal(err)
	}
	// The home re-seeds its token at the logged chain position — the
	// restart supervisor's surgery (see cluster.go Restart) — so fresh
	// grants continue the chain instead of reusing sequence 1.
	n2b.Locks().AdoptTokenKeepQueue(lock, 1, 1)
	// CatchUp re-registered the rejoiner's interest from its own log.
	waitFor(t, func() bool { return n1b.InterestedIn(lock, 2) })

	// A routed update now reaches the rejoiner without it re-acquiring.
	commitWrite(t, n1b, lock, 16, []byte("post-rejoin"))
	waitFor(t, func() bool {
		return n2b.Stats().Counter(metrics.CtrUpdateFramesRecv) >= 1
	})
	waitFor(t, func() bool { return n2b.Locks().Applied(lock) >= 2 })
	if got := readUnder(t, n2b, lock, 16, 11); string(got) != "post-rejoin" {
		t.Fatalf("rejoiner reads %q, want %q", got, "post-rejoin")
	}
}
