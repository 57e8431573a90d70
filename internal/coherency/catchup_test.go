package coherency

import (
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"testing"
	"time"

	"lbc/internal/lockmgr"
	"lbc/internal/metrics"
	"lbc/internal/netproto"
	"lbc/internal/rvm"
	"lbc/internal/store"
	"lbc/internal/wal"
)

// TestCatchUpAfterRestart simulates a client restart: the permanent
// image on the server lags the logs, so the restarted node must replay
// them before serving transactions.
func TestCatchUpAfterRestart(t *testing.T) {
	srv, err := store.NewServer("127.0.0.1:0", store.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hub := netproto.NewHub()
	ids := []netproto.NodeID{1, 2}
	// A lock whose ring birth home is node 1: node 2's endpoint does
	// not exist in session 1, so the acquire must be purely local.
	lock := uint32(0)
	for lockmgr.HomeOf(ids, lock) != 1 {
		lock++
	}

	mkNode := func(id netproto.NodeID, ep netproto.Transport) (*Node, *store.Client) {
		cli, err := store.Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		r, err := rvm.Open(rvm.Options{Node: uint32(id), Log: cli.LogDevice(uint32(id)), Data: cli})
		if err != nil {
			t.Fatal(err)
		}
		n, err := New(Options{
			RVM: r, Transport: ep, Nodes: ids,
			PeerLogs: func(node uint32) wal.Device { return cli.LogDevice(node) },
		})
		if err != nil {
			t.Fatal(err)
		}
		return n, cli
	}

	// Session 1: node 1 commits several flushed transactions.
	n1, cli1 := mkNode(1, hub.Endpoint(1))
	if _, err := n1.MapRegion(1, 4096); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		tx := n1.Begin(rvm.NoRestore)
		if err := tx.Acquire(lock); err != nil {
			t.Fatal(err)
		}
		tx.Write(n1.RVM().Region(1), uint64(i*16), []byte(fmt.Sprintf("commit-%d", i)))
		if _, err := tx.Commit(rvm.Flush); err != nil {
			t.Fatal(err)
		}
	}
	// Node 1 "crashes" — the server image was never updated.
	n1.Close()
	cli1.Close()

	// Session 2: node 2 starts fresh; its mapped image is stale.
	n2, _ := mkNode(2, hub.Endpoint(2))
	defer n2.Close()
	reg, err := n2.MapRegion(1, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if string(reg.Bytes()[:8]) == "commit-0" {
		t.Fatal("test premise broken: image already current")
	}
	if err := n2.CatchUp(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		want := fmt.Sprintf("commit-%d", i)
		if got := string(reg.Bytes()[i*16 : i*16+8]); got != want {
			t.Fatalf("slot %d = %q, want %q", i, got, want)
		}
	}
	// The interlock state was seeded: the lock's chain reached seq 5,
	// so a local acquire must succeed without waiting (no peers alive
	// to deliver anything).
	if got := n2.Locks().Applied(lock); got != 5 {
		t.Fatalf("applied chain = %d, want 5", got)
	}
	if n2.Stats().Counter("catchup_records") != 5 {
		t.Fatalf("catchup_records = %d", n2.Stats().Counter("catchup_records"))
	}
}

// TestCatchUpThenLiveTraffic: records already caught up must not be
// re-applied when they also arrive on the live path.
func TestCatchUpThenLiveTraffic(t *testing.T) {
	srv, err := store.NewServer("127.0.0.1:0", store.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hub := netproto.NewHub()
	ids := []netproto.NodeID{1, 2}
	var nodes []*Node
	for _, id := range ids {
		cli, err := store.Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		r, _ := rvm.Open(rvm.Options{Node: uint32(id), Log: cli.LogDevice(uint32(id)), Data: cli})
		n, err := New(Options{
			RVM: r, Transport: hub.Endpoint(id), Nodes: ids,
			PeerLogs: func(node uint32) wal.Device { return cli.LogDevice(node) },
		})
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		nodes = append(nodes, n)
	}
	for _, n := range nodes {
		if _, err := n.MapRegion(1, 1024); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range nodes {
		if err := n.WaitPeers(1, 1, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}

	commitWrite(t, nodes[0], 0, 0, []byte("first"))
	// Node 2 catches up from the server log (the eager broadcast also
	// delivered the same record; chain-dedup must keep one apply).
	waitFor(t, func() bool { return nodes[1].Locks().Applied(0) >= 1 })
	if err := nodes[1].CatchUp(); err != nil {
		t.Fatal(err)
	}
	commitWrite(t, nodes[0], 0, 0, []byte("second"))
	got := readUnder(t, nodes[1], 0, 0, 6)
	if string(got) != "second" {
		t.Fatalf("after catch-up + live: %q", got)
	}
}

// appendAfterOpen is a peer-log device that, once armed, appends one
// record to the log right after serving an Open(0) — a survivor's commit
// landing between a catch-up's read and whatever it does next.
type appendAfterOpen struct {
	wal.Device
	armed  *atomic.Bool
	append func()
}

func (d appendAfterOpen) Open(from int64) (io.ReadCloser, error) {
	rc, err := d.Device.Open(from)
	if err == nil && from == 0 && d.armed.CompareAndSwap(true, false) {
		d.append()
	}
	return rc, err
}

// TestCatchUpReadPositionIsScanEnd: catch-up must mark as read only what
// it read. A record node 1 appends just after node 2's catch-up opened
// its log is not in that read, so node 2's next pull must enqueue it — a
// plain tail pull, no rescan. With the read position taken from the
// log's size after the read, the pull starts past the record and finds
// nothing, and only a full rescan would ever reach it.
func TestCatchUpReadPositionIsScanEnd(t *testing.T) {
	var (
		armed atomic.Bool
		srv   *store.Server
	)
	late := &wal.TxRecord{Node: 1, TxSeq: 99,
		Ranges: []wal.RangeRec{{Region: 1, Off: 0, Data: []byte("late")}}}
	nodes, srv := storeCluster(t, 2, 1024, storeClusterOpts{
		prop: Lazy,
		peerLog: func(i int, node uint32, dev wal.Device) wal.Device {
			if i != 1 || node != 1 {
				return dev
			}
			return appendAfterOpen{Device: dev, armed: &armed, append: func() {
				log, err := srv.Log(1)
				if err == nil {
					_, err = log.Append(wal.AppendStandard(nil, late))
				}
				if err != nil {
					t.Error(err)
				}
			}}
		},
	})
	commitWrite(t, nodes[0], 1, 0, []byte("early"))
	if err := nodes[0].RVM().Flush(); err != nil {
		t.Fatal(err)
	}

	n := nodes[1]
	armed.Store(true)
	if err := n.CatchUp(); err != nil {
		t.Fatal(err)
	}
	if armed.Load() {
		t.Fatal("test premise broken: catch-up never opened node 1's log")
	}
	// Hold pulled records in the versioned buffer so they can be counted.
	n.SetVersioned(true)
	if err := n.pullPeerLog(1); err != nil {
		t.Fatal(err)
	}
	n.mu.Lock()
	got := append([]*wal.TxRecord(nil), n.buffered...)
	n.mu.Unlock()
	if len(got) != 1 || got[0].Node != late.Node || got[0].TxSeq != late.TxSeq {
		ids := make([]string, len(got))
		for i, r := range got {
			ids[i] = fmt.Sprintf("%d/%d", r.Node, r.TxSeq)
		}
		t.Fatalf("pull after catch-up enqueued %v, want exactly the late record 1/99", ids)
	}
	if r := n.Stats().Counter(metrics.CtrPullRescans); r != 0 {
		t.Fatalf("pull_rescans = %d, want 0", r)
	}
}

func TestCatchUpRequiresPeerLogs(t *testing.T) {
	hub := netproto.NewHub()
	r, _ := rvm.Open(rvm.Options{Node: 1})
	n, err := New(Options{RVM: r, Transport: hub.Endpoint(1), Nodes: []netproto.NodeID{1}})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if err := n.CatchUp(); err == nil || !errors.Is(err, err) {
		t.Fatalf("err = %v", err)
	}
}
