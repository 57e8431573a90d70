package coherency

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lbc/internal/metrics"
	"lbc/internal/netproto"
	"lbc/internal/rvm"
	"lbc/internal/store"
	"lbc/internal/wal"
)

// storeClusterOpts varies storeCluster: the propagation policy,
// optional wrappers around a node's image store and around the peer-log
// devices it reads (fault injection; node is the log's owner), and an
// optional last word on each node's Options.
type storeClusterOpts struct {
	prop    Propagation
	data    func(i int, cli *store.Client) rvm.DataStore
	peerLog func(i int, node uint32, dev wal.Device) wal.Device
	opt     func(i int, o *Options)
}

// storeCluster builds k nodes whose logs and database live on a shared
// storage server, each node attached through its own store client.
func storeCluster(t *testing.T, k int, size int, o storeClusterOpts) ([]*Node, *store.Server) {
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
		var data rvm.DataStore = cli
		if o.data != nil {
			data = o.data(i, cli)
		}
		r, err := rvm.Open(rvm.Options{
			Node: uint32(ids[i]),
			Log:  cli.LogDevice(uint32(ids[i])),
			Data: data,
		})
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{
			RVM:         r,
			Transport:   hub.Endpoint(ids[i]),
			Nodes:       ids,
			Propagation: o.prop,
			PeerLogs: func(node uint32) wal.Device {
				dev := cli.LogDevice(node)
				if o.peerLog != nil {
					dev = o.peerLog(i, node, dev)
				}
				return dev
			},
		}
		if o.opt != nil {
			o.opt(i, &opts)
		}
		n, err := New(opts)
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
	return nodes, srv
}

// lazyCluster is the configuration of §2.2 where "segment updates could
// be fetched from the server, where all log records are cached in
// memory for a time": k lazy-propagation nodes over a storage server.
func lazyCluster(t *testing.T, k int, size int) ([]*Node, *store.Server) {
	t.Helper()
	return storeCluster(t, k, size, storeClusterOpts{prop: Lazy})
}

func TestLazyPropagation(t *testing.T) {
	nodes, _ := lazyCluster(t, 2, 1024)
	commitWrite(t, nodes[0], 1, 100, []byte("pulled lazily"))
	// No eager traffic is generated in lazy mode.
	if got := nodes[0].Stats().Counter(metrics.CtrMsgsSent); got != 0 {
		t.Fatalf("lazy writer sent %d coherency messages", got)
	}
	got := readUnder(t, nodes[1], 1, 100, 13)
	if string(got) != "pulled lazily" {
		t.Fatalf("lazy reader sees %q", got)
	}
}

func TestLazyChainAcrossThreeNodes(t *testing.T) {
	nodes, _ := lazyCluster(t, 3, 1024)
	commitWrite(t, nodes[0], 1, 0, []byte("v1"))
	commitWrite(t, nodes[1], 1, 0, []byte("v2"))
	got := readUnder(t, nodes[2], 1, 0, 2)
	if string(got) != "v2" {
		t.Fatalf("node 3 sees %q", got)
	}
}

func TestLazyRepeatedRounds(t *testing.T) {
	nodes, _ := lazyCluster(t, 2, 1024)
	for i := 0; i < 10; i++ {
		w, r := nodes[i%2], nodes[(i+1)%2]
		commitWrite(t, w, 1, 0, []byte(fmt.Sprintf("it-%02d", i)))
		got := readUnder(t, r, 1, 0, 5)
		if string(got) != fmt.Sprintf("it-%02d", i) {
			t.Fatalf("round %d: %q", i, got)
		}
	}
}

// TestLazyThenRecovery checks the full distributed picture: lazy
// commits land on the server, the merge-free single-writer log
// recovers the database.
func TestLazyThenRecovery(t *testing.T) {
	nodes, srv := lazyCluster(t, 2, 1024)
	commitWrite(t, nodes[0], 1, 0, []byte("persist me"))

	dev, err := srv.Log(1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rvm.Recover(dev, srv.Data(), rvm.RecoverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != 1 {
		t.Fatalf("recovered %d records", res.Records)
	}
	img, err := srv.Data().LoadRegion(1)
	if err != nil {
		t.Fatal(err)
	}
	if string(img[:10]) != "persist me" {
		t.Fatalf("server image = %q", img[:10])
	}
}

// TestEagerOverTCP runs the whole eager stack across real TCP sockets:
// transport mesh, lock protocol, and coherency broadcast.
func TestEagerOverTCP(t *testing.T) {
	var meshes []*netproto.TCPMesh
	ids := []netproto.NodeID{1, 2}
	for _, id := range ids {
		m, err := netproto.NewTCPMesh(id, "127.0.0.1:0", map[netproto.NodeID]string{})
		if err != nil {
			t.Fatal(err)
		}
		meshes = append(meshes, m)
		t.Cleanup(func() { m.Close() })
	}
	meshes[0].SetPeer(2, meshes[1].Addr())
	meshes[1].SetPeer(1, meshes[0].Addr())

	var nodes []*Node
	for i, id := range ids {
		r, _ := rvm.Open(rvm.Options{Node: uint32(id)})
		n, err := New(Options{RVM: r, Transport: meshes[i], Nodes: ids})
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
		t.Cleanup(func() { n.Close() })
	}
	for _, n := range nodes {
		if _, err := n.MapRegion(1, 4096); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range nodes {
		if err := n.WaitPeers(1, 1, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}

	payload := bytes.Repeat([]byte("tcp!"), 256)
	commitWrite(t, nodes[0], 1, 0, payload)
	got := readUnder(t, nodes[1], 1, 0, len(payload))
	if !bytes.Equal(got, payload) {
		t.Fatal("payload corrupted over TCP")
	}
	waitFor(t, func() bool { return windowsDrained(nodes[0]) })
	if nodes[0].Stats().Phase(metrics.PhaseNetIO) == 0 {
		t.Fatal("network I/O time not accrued")
	}
}

// TestLazyRandomConvergence: the convergence property under lazy
// server-pull propagation.
func TestLazyRandomConvergence(t *testing.T) {
	const (
		kLocks = 2
		segLen = 256
	)
	nodes, _ := lazyCluster(t, 3, kLocks*segLen)
	var wg sync.WaitGroup
	for i := range nodes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(i + 99)))
			for k := 0; k < 15; k++ {
				lock := uint32(r.Intn(kLocks))
				tx := nodes[i].Begin(rvm.NoRestore)
				if err := tx.Acquire(lock); err != nil {
					t.Error(err)
					return
				}
				off := uint64(lock)*segLen + uint64(r.Intn(segLen-8))
				data := make([]byte, r.Intn(7)+1)
				r.Read(data)
				tx.Write(nodes[i].RVM().Region(1), off, data)
				if _, err := tx.Commit(rvm.NoFlush); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for _, n := range nodes {
		for l := uint32(0); l < kLocks; l++ {
			tx := n.Begin(rvm.NoRestore)
			if err := tx.Acquire(l); err != nil {
				t.Fatal(err)
			}
			tx.Commit(rvm.NoFlush)
		}
	}
	base := nodes[0].RVM().Region(1).Bytes()
	for i := 1; i < len(nodes); i++ {
		if !bytes.Equal(base, nodes[i].RVM().Region(1).Bytes()) {
			t.Fatalf("node %d diverged under lazy propagation", i+1)
		}
	}
}

// TestLazyPullSurvivesHeadTrim: checkpoint head trims move byte
// offsets under every lazy reader. A reader whose saved position is
// from the pre-trim coordinate space must detect the trim and rescan
// from the new head instead of stalling forever on a clean-looking or
// garbage tail. The equal-length records make the nastiest shape: the
// trimmed log grows back to exactly the stale read position, so only
// the no-progress rescan escalation can see the new record.
func TestLazyPullSurvivesHeadTrim(t *testing.T) {
	nodes, _ := lazyCluster(t, 2, 1024)
	commitWrite(t, nodes[0], 1, 100, []byte("before-trim!"))
	if got := readUnder(t, nodes[1], 1, 100, 12); string(got) != "before-trim!" {
		t.Fatalf("pre-trim read: %q", got)
	}

	// A checkpoint trims the writer's server-side log behind the
	// reader's back, then a new commit lands.
	cut, err := nodes[0].RVM().LogCut()
	if err != nil {
		t.Fatal(err)
	}
	if err := nodes[0].RVM().TrimLogHeadLogical(cut); err != nil {
		t.Fatal(err)
	}
	commitWrite(t, nodes[0], 1, 100, []byte("after-trim!!"))

	if got := readUnder(t, nodes[1], 1, 100, 12); string(got) != "after-trim!!" {
		t.Fatalf("post-trim read: %q", got)
	}
	if nodes[1].Stats().Counter(metrics.CtrPullRescans) == 0 {
		t.Fatal("reader caught up without a head-trim rescan")
	}
}

// TestCheckpointDrainsLazyReaders: the checkpoint sync round. Node 2
// has never pulled node 1's log, so its read position is at the very
// start of it — everything the checkpoint wants to trim is still
// unpulled. The coordinator must have node 2 drain before any log head
// moves; without the sync round a lazy laggard's records are deleted
// unread and its later acquire wedges until timeout. Who reads the
// server logs is each node's own configuration, so the round must reach
// a reading peer even when the coordinator itself reads nothing.
func TestCheckpointDrainsLazyReaders(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  func(i int, o *Options)
	}{
		{"lazy", func(i int, o *Options) { o.Propagation = Lazy }},
		{"eager coordinator, pull-on-stall peer", func(i int, o *Options) { o.PullOnStall = i == 1 }},
		{"eager coordinator, interest-routed peer", func(i int, o *Options) { o.InterestRouting = i == 1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Node 2's reads of node 1's log while the checkpoint runs,
			// split by whether node 1's head had moved yet.
			var coord atomic.Pointer[Node]
			var armed atomic.Bool
			var drained, late atomic.Int32
			nodes, _ := storeCluster(t, 2, 1024, storeClusterOpts{
				opt: tc.opt,
				peerLog: func(i int, node uint32, dev wal.Device) wal.Device {
					if i != 1 || node != 1 {
						return dev
					}
					return openHook{Device: dev, open: func() {
						if !armed.Load() {
							return
						}
						if coord.Load().Stats().Counter(metrics.CtrLogTrims) == 0 {
							drained.Add(1)
						} else {
							late.Add(1)
						}
					}}
				},
			})
			coord.Store(nodes[0])
			commitWrite(t, nodes[0], 1, 0, []byte("gen-one"))
			commitWrite(t, nodes[0], 1, 0, []byte("gen-two"))

			armed.Store(true)
			if err := nodes[0].CoordinatedCheckpoint([]uint32{1}, 10*time.Second); err != nil {
				t.Fatal(err)
			}
			armed.Store(false)
			if drained.Load() == 0 || late.Load() != 0 {
				t.Fatalf("node 2 read node 1's log %d times before the trim and %d after; want a drain before it only",
					drained.Load(), late.Load())
			}
			if got := nodes[0].Stats().Counter(metrics.CtrLogTrims); got == 0 {
				t.Fatal("the checkpoint trimmed no log")
			}
			if got := readUnder(t, nodes[1], 1, 0, 7); string(got) != "gen-two" {
				t.Fatalf("laggard after checkpoint: %q", got)
			}
		})
	}
}

// openHook is a peer-log device that calls open before every read.
type openHook struct {
	wal.Device
	open func()
}

func (h openHook) Open(from int64) (io.ReadCloser, error) {
	h.open()
	return h.Device.Open(from)
}

// failingLog is a peer-log device whose reads fail while broken is set.
type failingLog struct {
	wal.Device
	broken *atomic.Bool
}

func (f failingLog) Open(from int64) (io.ReadCloser, error) {
	if f.broken.Load() {
		return nil, errors.New("injected peer-log read failure")
	}
	return f.Device.Open(from)
}

// TestCheckpointLazyFailedDrainWithholdsAck: where there is a lazy
// reader the sync round still runs, and still protects it. Node 2 reads
// node 1's log lazily and has pulled nothing; while its log reads fail
// it cannot drain, so it withholds the sync ack, the checkpoint times
// out, and no log head moves. Once reads work again the next checkpoint
// drains it, trims, and the laggard still sees the data.
func TestCheckpointLazyFailedDrainWithholdsAck(t *testing.T) {
	var broken atomic.Bool
	nodes, _ := storeCluster(t, 2, 1024, storeClusterOpts{
		prop: Lazy,
		peerLog: func(i int, _ uint32, dev wal.Device) wal.Device {
			if i == 1 {
				return failingLog{Device: dev, broken: &broken}
			}
			return dev
		},
	})
	commitWrite(t, nodes[0], 1, 0, []byte("unpulled"))
	if err := nodes[0].RVM().Flush(); err != nil {
		t.Fatal(err)
	}
	before, _ := nodes[0].RVM().Log().Size()

	broken.Store(true)
	err := nodes[0].CoordinatedCheckpoint([]uint32{1}, 300*time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), "checkpoint sync") {
		t.Fatalf("checkpoint with an undrainable lazy reader: %v, want a sync-round timeout", err)
	}
	if nodes[1].Stats().Counter(metrics.CtrCkptErrors) == 0 {
		t.Fatal("the failed drain was not counted")
	}
	// The durable marker was appended, but nothing was trimmed.
	if after, _ := nodes[0].RVM().Log().Size(); after < before {
		t.Fatalf("log head moved (%d -> %d bytes) although a reader could not drain", before, after)
	}
	if got := nodes[0].Stats().Counter(metrics.CtrLogTrims); got != 0 {
		t.Fatalf("%d log trims after an aborted checkpoint", got)
	}

	broken.Store(false)
	if err := nodes[0].CoordinatedCheckpoint([]uint32{1}, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if sz, _ := nodes[0].RVM().Log().Size(); sz != 0 {
		t.Fatalf("log not trimmed after the drained checkpoint (%d bytes)", sz)
	}
	if got := readUnder(t, nodes[1], 1, 0, 8); string(got) != "unpulled" {
		t.Fatalf("laggard after checkpoint: %q", got)
	}
}

func TestLazySharedAcquirePulls(t *testing.T) {
	nodes, _ := lazyCluster(t, 2, 1024)
	commitWrite(t, nodes[0], 1, 0, []byte("for readers"))
	tx := nodes[1].Begin(rvm.NoRestore)
	if err := tx.AcquireShared(1); err != nil {
		t.Fatal(err)
	}
	got := string(nodes[1].RVM().Region(1).Bytes()[:11])
	if _, err := tx.Commit(rvm.NoFlush); err != nil {
		t.Fatal(err)
	}
	if got != "for readers" {
		t.Fatalf("lazy shared reader sees %q", got)
	}
}
