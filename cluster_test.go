package lbc

import (
	"runtime"
	"testing"
	"time"

	"lbc/internal/metrics"
	"lbc/internal/netproto"
)

func TestClusterRejectsZeroNodes(t *testing.T) {
	if _, err := NewLocalCluster(0); err == nil {
		t.Fatal("zero-node cluster accepted")
	}
}

func TestWithPageSizeAffectsPageStatistic(t *testing.T) {
	cluster, err := NewLocalCluster(1, WithPageSize(256))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	cluster.MapAll(1, 2048)
	n := cluster.Node(0)
	tx := n.Begin(NoRestore)
	tx.Acquire(0)
	// Two writes 256 bytes apart: two pages at 256-byte grain, one
	// page at the default 8 KB grain.
	tx.Write(n.RVM().Region(1), 0, []byte{1})
	tx.Write(n.RVM().Region(1), 256, []byte{2})
	if _, err := tx.Commit(NoFlush); err != nil {
		t.Fatal(err)
	}
	if got := n.Stats().Counter(metrics.CtrPagesTouched); got != 2 {
		t.Fatalf("pages touched = %d with 256-byte pages", got)
	}
}

func TestClusterSizeAndAccessors(t *testing.T) {
	cluster, err := NewLocalCluster(3)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if cluster.Size() != 3 {
		t.Fatalf("size = %d", cluster.Size())
	}
	if cluster.Store() != nil || cluster.StoreBackup() != nil {
		t.Fatal("storeless cluster reports a server")
	}
	for i := 0; i < 3; i++ {
		if cluster.Node(i).Self() != netproto.NodeID(i+1) {
			t.Fatalf("node %d has id %d", i, cluster.Node(i).Self())
		}
		if cluster.Log(i) == nil {
			t.Fatalf("node %d has no log device", i)
		}
	}
}

func TestLockWaitObservable(t *testing.T) {
	cluster, err := NewLocalCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	cluster.MapAll(1, 64)
	cluster.Barrier(1)
	// A write on node 1 forces node 2's first acquire through the
	// token protocol + interlock; the wait shows up in its stats.
	a, b := cluster.Node(0), cluster.Node(1)
	tx := a.Begin(NoRestore)
	tx.Acquire(0)
	tx.Write(a.RVM().Region(1), 0, []byte{1})
	tx.Commit(NoFlush)
	tx2 := b.Begin(NoRestore)
	if err := tx2.Acquire(0); err != nil {
		t.Fatal(err)
	}
	tx2.Commit(NoFlush)
	if b.Locks().Stats().Counter("lock_wait_ns") <= 0 {
		t.Fatal("lock wait time not recorded")
	}
}

// TestClusterCloseStopsGoroutines: the production configuration, crashed
// and restarted three times, leaves no goroutine behind once Close
// returns — no mesh reader, detector, store connection or apply worker.
func TestClusterCloseStopsGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	c, err := NewLocalCluster(3, WithTCP(), WithStore(), WithGroupCommit(),
		WithMembership(MembershipOptions{Interval: 200 * time.Millisecond, SuspectAfter: 2 * time.Second}))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.MapAll(chaosRegion, chaosLocks*chaosSegLen); err != nil {
		c.Close()
		t.Fatal(err)
	}
	for l := 0; l < chaosLocks; l++ {
		c.AddSegmentAll(Segment{LockID: uint32(l), Region: chaosRegion,
			Off: uint64(l) * chaosSegLen, Len: chaosSegLen})
	}
	for round := 0; round < 3; round++ {
		for l := 0; l < chaosLocks; l++ {
			if err := chaosWrite(c.Node((round+l)%c.Size()), 1, round, l); err != nil {
				c.Close()
				t.Fatal(err)
			}
		}
		if err := c.Crash(2); err != nil {
			c.Close()
			t.Fatal(err)
		}
		if err := c.Restart(2); err != nil {
			c.Close()
			t.Fatal(err)
		}
	}
	c.Close()
	awaitGoroutines(t, base)
}

// TestLocalClusterCloseStopsGoroutines: the default in-process cluster
// leaves no goroutine behind once Close returns — in particular no
// in-process endpoint's dispatch loop.
func TestLocalClusterCloseStopsGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	c, err := NewLocalCluster(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.MapAll(1, 4096); err != nil {
		c.Close()
		t.Fatal(err)
	}
	tx := c.Node(0).Begin(NoRestore)
	tx.Acquire(0)
	tx.Write(c.Node(0).RVM().Region(1), 0, []byte("x"))
	if _, err := tx.Commit(Flush); err != nil {
		c.Close()
		t.Fatal(err)
	}
	c.Close()
	awaitGoroutines(t, base)
}

// awaitGoroutines waits up to ten seconds for the goroutine count to
// fall back to base, and fails with every goroutine's stack if it does
// not.
func awaitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines after Close, %d before NewLocalCluster:\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}
