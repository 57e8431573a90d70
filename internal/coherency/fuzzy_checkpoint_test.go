package coherency

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"lbc/internal/chaos"
	"lbc/internal/lockmgr"
	"lbc/internal/merge"
	"lbc/internal/metrics"
	"lbc/internal/netproto"
	"lbc/internal/rvm"
	"lbc/internal/store"
	"lbc/internal/wal"
)

// fuzzyCluster builds nodes with the given segments registered, an
// acquire timeout (so a wedged checkpoint fails instead of hanging),
// and an optional DataStore override per node. halfSegments maps lock 1
// to the first half of region 1 and lock 2 to [512,768), leaving the
// tail uncovered so the quiesced remainder sweep has work.
var halfSegments = []Segment{
	{LockID: 1, Region: 1, Off: 0, Len: 512},
	{LockID: 2, Region: 1, Off: 512, Len: 256},
}

func fuzzyCluster(t *testing.T, k int, segs []Segment, stores []rvm.DataStore) ([]*Node, []*wal.MemDevice) {
	t.Helper()
	hub := netproto.NewHub()
	ids := make([]netproto.NodeID, k)
	for i := range ids {
		ids[i] = netproto.NodeID(i + 1)
	}
	nodes := make([]*Node, k)
	logs := make([]*wal.MemDevice, k)
	for i := range ids {
		logs[i] = wal.NewMemDevice()
		var data rvm.DataStore = rvm.NewMemStore()
		if stores != nil && stores[i] != nil {
			data = stores[i]
		}
		r, err := rvm.Open(rvm.Options{Node: uint32(ids[i]), Log: logs[i], Data: data})
		if err != nil {
			t.Fatal(err)
		}
		n, err := New(Options{
			RVM: r, Transport: hub.Endpoint(ids[i]), Nodes: ids,
			AcquireTimeout: 300 * time.Millisecond,
		})
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
		for _, s := range segs {
			n.AddSegment(s)
		}
	}
	for _, n := range nodes {
		if err := n.WaitPeers(1, k-1, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	return nodes, logs
}

// TestCheckpointFailureReleasesLocks is the regression test for the
// quiesce-phase lock leak: when a mid-loop acquire failed, the locks
// taken by earlier iterations were held forever because the abort was
// registered only after the loop completed. A failed checkpoint must
// release everything it acquired.
func TestCheckpointFailureReleasesLocks(t *testing.T) {
	// Only lock 1 has a registered segment: the fuzzy sweep phase never
	// touches the wedged lock 2, so the failure lands squarely in the
	// quiesce acquire loop — the path that used to leak.
	nodes, _ := fuzzyCluster(t, 2, halfSegments[:1], nil)

	// The peer wedges lock 2 in an open transaction, so the coordinator's
	// quiesce acquires lock 1 and then times out on lock 2.
	held := nodes[1].Begin(rvm.NoRestore)
	if err := held.Acquire(2); err != nil {
		t.Fatal(err)
	}
	err := nodes[0].CoordinatedCheckpoint([]uint32{1, 2}, 5*time.Second)
	if !errors.Is(err, lockmgr.ErrAcquireTimeout) {
		t.Fatalf("checkpoint against a wedged lock: %v, want acquire timeout", err)
	}

	// Lock 1 was acquired before the failure; it must be free again.
	tx := nodes[1].Begin(rvm.NoRestore)
	if err := tx.Acquire(1); err != nil {
		t.Fatalf("lock 1 leaked by the failed checkpoint: %v", err)
	}
	tx.Abort()
	if err := held.Abort(); err != nil {
		t.Fatal(err)
	}
	// And a later checkpoint succeeds once the wedge clears.
	if err := nodes[0].CoordinatedCheckpoint([]uint32{1, 2}, 5*time.Second); err != nil {
		t.Fatal(err)
	}
}

// gatedStore wraps a MemStore and blocks the first StorePages call until
// released, signalling when the block is reached. It lets a test hold a
// checkpoint mid-sweep deterministically.
type gatedStore struct {
	*rvm.MemStore
	once    sync.Once
	reached chan struct{}
	release chan struct{}
}

func newGatedStore() *gatedStore {
	return &gatedStore{
		MemStore: rvm.NewMemStore(),
		reached:  make(chan struct{}),
		release:  make(chan struct{}),
	}
}

func (g *gatedStore) StorePages(id uint32, pages []rvm.PageWrite) error {
	g.once.Do(func() {
		close(g.reached)
		<-g.release
	})
	return g.MemStore.StorePages(id, pages)
}

// TestCheckpointAllowsConcurrentCommits pins the tentpole property: the
// image sweep no longer runs under a full quiesce, so a commit under a
// lock the sweep is not currently holding completes while the sweep is
// in progress. The raced commit must then survive the checkpoint — it
// stays replayable from the logs over the checkpointed image.
func TestCheckpointAllowsConcurrentCommits(t *testing.T) {
	gs := newGatedStore()
	nodes, logs := fuzzyCluster(t, 2, halfSegments, []rvm.DataStore{gs, nil})

	commitWrite(t, nodes[0], 1, 0, []byte("covered-by-ckpt"))

	ckptErr := make(chan error, 1)
	go func() {
		ckptErr <- nodes[0].CoordinatedCheckpoint([]uint32{1, 2}, 10*time.Second)
	}()

	// The sweep's writer is now blocked in its first store write, which
	// happens behind the per-lock copies with no lock held. A commit
	// under lock 2 must make progress, and — landing after lock 2's copy
	// was taken — reach the image through the dirty resweep.
	<-gs.reached
	commitWrite(t, nodes[1], 2, 512, []byte("raced-the-sweep"))
	close(gs.release)

	if err := <-ckptErr; err != nil {
		t.Fatal(err)
	}

	// The coordinator's checkpointed image carries both writes.
	img, err := gs.LoadRegion(1)
	if err != nil {
		t.Fatal(err)
	}
	if string(img[0:15]) != "covered-by-ckpt" || string(img[512:527]) != "raced-the-sweep" {
		t.Fatalf("image = %q / %q", img[0:15], img[512:527])
	}

	// The raced commit landed after the peer's Begin-time cut, so its
	// record survives the peer's head trim and full recovery over the
	// checkpointed image converges to the live state.
	if sz, _ := logs[1].Size(); sz == 0 {
		t.Fatal("raced commit's record was trimmed from the peer log")
	}
	check := rvm.NewMemStore()
	if img, err := gs.LoadRegion(1); err == nil {
		check.StoreRegion(1, img)
	}
	res, err := rvm.Recover(logs[1], check, rvm.RecoverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != 1 {
		t.Fatalf("replayed %d records, want the raced commit only", res.Records)
	}
	got, _ := check.LoadRegion(1)
	want := readUnder(t, nodes[0], 2, 512, 15)
	if !bytes.Equal(got[512:527], want) {
		t.Fatalf("recovered %q, live %q", got[512:527], want)
	}
}

// TestCheckpointCutSurvivesConcurrentTrim: a peer's recorded cut must
// stay correct when something else trims the peer's log between the
// coordinator's Begin and Trim requests. Coordinators are
// serialized (TestCheckpointRefusesSecondCoordinator), so the other trim
// can only be a local one (the node's own rvm checkpoint); the handlers
// are driven directly to put it inside the window.
func TestCheckpointCutSurvivesConcurrentTrim(t *testing.T) {
	nodes, logs := fuzzyCluster(t, 2, halfSegments, nil)
	peer := nodes[1]

	commitWrite(t, peer, 2, 512, []byte("below-the-cut"))

	// Coordinator A's Begin arrives: the peer records its cut.
	peer.onCheckpoint(1, ckptRequest(ckptBegin, 7))

	// Everything recorded so far is trimmed inside A's window; then a
	// commit races A's sweep.
	cut, err := peer.RVM().LogCut()
	if err != nil {
		t.Fatal(err)
	}
	if err := peer.RVM().TrimLogHeadLogical(cut); err != nil {
		t.Fatal(err)
	}
	commitWrite(t, peer, 2, 512, []byte("raced-the-ckpt"))

	// A's Trim arrives. Interpreted as a raw post-trim offset, A's
	// stale cut would delete the raced commit's record (or fall beyond
	// the log end); the logical cut rebases against the trim to a no-op.
	peer.onCheckpoint(1, ckptRequest(ckptTrim, 7))

	txs, err := wal.ReadDevice(logs[1])
	if err != nil {
		t.Fatal(err)
	}
	if len(txs) != 1 {
		t.Fatalf("%d records in peer log after stale-cut trim, want the raced commit only", len(txs))
	}
	if got := peer.Stats().Counter(metrics.CtrCkptErrors); got != 0 {
		t.Fatalf("stale cut raised %d checkpoint errors", got)
	}
}

// TestCheckpointSegmentsTrimAndRecovery: with registered segments the
// per-lock sweep plus quiesced remainder still checkpoints everything —
// all logs trim to empty and the store image matches the live state.
func TestCheckpointSegmentsTrimAndRecovery(t *testing.T) {
	stores := []rvm.DataStore{rvm.NewMemStore(), rvm.NewMemStore()}
	nodes, logs := fuzzyCluster(t, 2, halfSegments, stores)

	commitWrite(t, nodes[0], 1, 0, []byte("first-half"))
	commitWrite(t, nodes[1], 2, 512, []byte("second-half"))
	// Bytes [768,1024) are outside every registered segment, so this
	// write is captured only by the quiesced remainder sweep.
	commitWrite(t, nodes[0], 1, 800, []byte("uncovered"))

	if err := nodes[0].CoordinatedCheckpoint([]uint32{1, 2}, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	for i, l := range logs {
		if sz, _ := l.Size(); sz != 0 {
			t.Fatalf("node %d log not trimmed (%d bytes)", i+1, sz)
		}
	}
	img, err := stores[0].LoadRegion(1)
	if err != nil {
		t.Fatal(err)
	}
	if string(img[0:10]) != "first-half" || string(img[512:523]) != "second-half" ||
		string(img[800:809]) != "uncovered" {
		t.Fatalf("image = %q / %q / %q", img[0:10], img[512:523], img[800:809])
	}
}

// powerCutStore is a node's attachment to the storage server that loses
// power after a set number of vectored page writes: the write that
// reaches the count still lands, everything after it — page writes and
// the force that precedes the marker — fails.
type powerCutStore struct {
	*store.Client
	cutAfter int // 0: never
	writes   int
	dead     bool
}

var errPowerCut = errors.New("power cut")

func (p *powerCutStore) StorePages(id uint32, pages []rvm.PageWrite) error {
	if p.dead {
		return errPowerCut
	}
	if err := p.Client.StorePages(id, pages); err != nil {
		return err
	}
	p.writes++
	p.dead = p.writes == p.cutAfter
	return nil
}

func (p *powerCutStore) Sync() error {
	if p.dead {
		return errPowerCut
	}
	return p.Client.Sync()
}

// runPowerCutCheckpoint drives a three-node store-backed cluster through
// a completed checkpoint (the previous recovery start point), a tail of
// commits, and a second checkpoint whose coordinator loses power after
// cutAfter page writes (0: it completes). It returns how many page
// writes the second checkpoint issued. After a cut, the state a crash
// leaves behind — the store's image with part of a sweep written over
// it, no new marker, untrimmed log tails — must satisfy the three
// harness invariants.
func runPowerCutCheckpoint(t *testing.T, cutAfter int) int {
	t.Helper()
	const (
		segs   = 10
		segLen = 256 << 10
		// The tail past the last segment is under no lock: the quiesced
		// remainder sweep always has something to write.
		size = segs*segLen + 8192
	)
	coord := &powerCutStore{}
	nodes, srv := storeCluster(t, 3, size, storeClusterOpts{
		data: func(i int, cli *store.Client) rvm.DataStore {
			if i == 0 {
				coord.Client = cli
				return coord
			}
			return cli
		},
	})
	var locks []uint32
	for l := uint32(0); l < segs; l++ {
		locks = append(locks, l)
		for _, n := range nodes {
			n.AddSegment(Segment{LockID: l, Region: 1, Off: uint64(l) * segLen, Len: segLen})
		}
	}
	round := func(tag string) {
		for l := uint32(0); l < segs; l++ {
			n := nodes[int(l)%len(nodes)]
			tx := n.Begin(rvm.NoRestore)
			if err := tx.Acquire(l); err != nil {
				t.Fatal(err)
			}
			if err := tx.Write(region(t, n), uint64(l)*segLen+uint64(len(tag)), []byte(fmt.Sprintf("%s-%d", tag, l))); err != nil {
				t.Fatal(err)
			}
			if _, err := tx.Commit(rvm.Flush); err != nil {
				t.Fatal(err)
			}
		}
	}
	logs := func() []wal.Device {
		var out []wal.Device
		for _, n := range nodes {
			out = append(out, n.RVM().Log())
		}
		return out
	}

	round("first")
	history, err := chaos.ReadLogRecords(logs()...)
	if err != nil {
		t.Fatal(err)
	}
	if err := nodes[0].CoordinatedCheckpoint(locks, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	round("second-longer-tag")

	coord.writes, coord.cutAfter = 0, cutAfter
	err = nodes[0].CoordinatedCheckpoint(locks, 30*time.Second)
	if cutAfter == 0 {
		if err != nil {
			t.Fatal(err)
		}
		return coord.writes
	}
	if !errors.Is(err, errPowerCut) {
		t.Fatalf("checkpoint across a power cut after %d page writes: %v", cutAfter, err)
	}
	if coord.writes != cutAfter {
		t.Fatalf("%d page writes landed, want %d", coord.writes, cutAfter)
	}

	// No marker, and the logs hold exactly the tail: recovery starts
	// where the completed checkpoint left the log heads.
	own, err := wal.ReadDevice(nodes[0].RVM().Log())
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range own {
		if rec.Checkpoint {
			t.Fatal("a checkpoint marker was appended after the power cut")
		}
	}
	if tail, err := chaos.ReadLogRecords(logs()...); err != nil || len(tail) != segs {
		t.Fatalf("logs hold %d records (%v), want the %d-commit tail", len(tail), err, segs)
	}

	// 1. The survivors converge (the interlock makes each current).
	images := map[uint32]map[uint32][]byte{}
	for _, n := range nodes[1:] {
		for _, l := range locks {
			readUnder(t, n, l, 0, 1)
		}
		images[uint32(n.Self())] = map[uint32][]byte{1: append([]byte(nil), region(t, n).Bytes()...)}
	}
	if err := chaos.CheckConverged(images); err != nil {
		t.Fatal(err)
	}
	want := images[2][1]

	// 2. Lock chains are gap-free over everything ever logged: what the
	// completed checkpoint trimmed plus what the logs hold now.
	now, err := chaos.ReadLogRecords(logs()...)
	if err != nil {
		t.Fatal(err)
	}
	if err := chaos.CheckLockChains(append(history, now...)); err != nil {
		t.Fatal(err)
	}

	// 3. Merging the logs and recovering over the store's image — part
	// of the interrupted sweep included — reproduces the converged image.
	img, err := srv.Data().LoadRegion(1)
	if err != nil {
		t.Fatal(err)
	}
	data := rvm.NewMemStore()
	if err := data.StoreRegion(1, img); err != nil {
		t.Fatal(err)
	}
	merged := wal.NewMemDevice()
	if _, err := merge.MergeTo(merged, logs()...); err != nil {
		t.Fatal(err)
	}
	if _, err := rvm.Recover(merged, data, rvm.RecoverOptions{}); err != nil {
		t.Fatal(err)
	}
	got, err := data.LoadRegion(1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("recovered image %016x, converged image %016x",
			chaos.ImageChecksum(got), chaos.ImageChecksum(want))
	}
	return coord.writes
}

// TestPowerCutMidSweepOverStoreClient cuts the coordinator's power after
// the first, a middle and the last vectored page write of a checkpoint
// over the real store client — always before the marker — and requires
// recovery from the previous start point to hold the three invariants.
func TestPowerCutMidSweepOverStoreClient(t *testing.T) {
	total := runPowerCutCheckpoint(t, 0)
	if total < 3 {
		t.Fatalf("the checkpoint issued %d page writes; the scenario needs a first, a middle and a last", total)
	}
	for _, k := range []int{1, (total + 1) / 2, total} {
		t.Run(fmt.Sprintf("after-write-%d-of-%d", k, total), func(t *testing.T) {
			runPowerCutCheckpoint(t, k)
		})
	}
}

// gatedPowerCutStore holds its first page write at a gate until released
// (the write then lands) and loses power right after it.
type gatedPowerCutStore struct {
	powerCutStore
	once    sync.Once
	reached chan struct{}
	release chan struct{}
}

func (g *gatedPowerCutStore) StorePages(id uint32, pages []rvm.PageWrite) error {
	g.once.Do(func() {
		close(g.reached)
		<-g.release
	})
	return g.powerCutStore.StorePages(id, pages)
}

// TestCheckpointRefusesSecondCoordinator: a sweep stores a segment's
// copy after releasing the segment's lock, so a second coordinator that
// sealed and trimmed in that window would have the first one's stale copy
// land over its sealed page, with the update gone from every log. Here
// coordinator A's writer is held with a copy of lock 1's segment queued, a
// commit W lands under lock 1, and B tries to checkpoint: it must be
// refused and trim nothing, so that when A's stale copy does land and A
// then dies before resweeping, W is still recoverable from the logs.
func TestCheckpointRefusesSecondCoordinator(t *testing.T) {
	a := &gatedPowerCutStore{
		powerCutStore: powerCutStore{cutAfter: 1},
		reached:       make(chan struct{}),
		release:       make(chan struct{}),
	}
	nodes, srv := storeCluster(t, 3, 1024, storeClusterOpts{
		data: func(i int, cli *store.Client) rvm.DataStore {
			if i == 0 {
				a.Client = cli
				return a
			}
			return cli
		},
	})
	for _, n := range nodes {
		for _, s := range halfSegments {
			n.AddSegment(s)
		}
	}
	locks := []uint32{1, 2}
	write := func(val string) {
		tx := nodes[2].Begin(rvm.NoRestore)
		if err := tx.Acquire(1); err != nil {
			t.Fatal(err)
		}
		if err := tx.Write(region(t, nodes[2]), 0, []byte(val)); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Commit(rvm.Flush); err != nil {
			t.Fatal(err)
		}
	}
	storeImage := func() []byte {
		img, err := srv.Data().LoadRegion(1)
		if err != nil {
			t.Fatal(err)
		}
		return img
	}

	write("old-value")
	ckptErr := make(chan error, 1)
	go func() { ckptErr <- nodes[0].CoordinatedCheckpoint(locks, 10*time.Second) }()
	<-a.reached // A holds no lock; its copy of lock 1's segment is in flight
	write("new-value")

	if err := nodes[1].CoordinatedCheckpoint(locks, 10*time.Second); !errors.Is(err, ErrCheckpointBusy) {
		t.Fatalf("second coordinator mid-sweep: %v, want ErrCheckpointBusy", err)
	}
	if err := nodes[0].CoordinatedCheckpoint(locks, 10*time.Second); !errors.Is(err, ErrCheckpointBusy) {
		t.Fatalf("second checkpoint on the coordinating node: %v, want ErrCheckpointBusy", err)
	}

	// A's stale copy lands; A loses power before its dirty resweep.
	close(a.release)
	if err := <-ckptErr; !errors.Is(err, errPowerCut) {
		t.Fatalf("first coordinator: %v, want the power cut", err)
	}
	if got := storeImage()[:9]; string(got) != "old-value" {
		t.Fatalf("store image holds %q; the scenario needs the stale copy to have landed", got)
	}

	// A node restarting now recovers from that image and the logs.
	data := rvm.NewMemStore()
	if err := data.StoreRegion(1, storeImage()); err != nil {
		t.Fatal(err)
	}
	merged := wal.NewMemDevice()
	var logs []wal.Device
	for _, n := range nodes {
		logs = append(logs, n.RVM().Log())
	}
	if _, err := merge.MergeTo(merged, logs...); err != nil {
		t.Fatal(err)
	}
	if _, err := rvm.Recover(merged, data, rvm.RecoverOptions{}); err != nil {
		t.Fatal(err)
	}
	if got, _ := data.LoadRegion(1); string(got[:9]) != "new-value" {
		t.Fatalf("recovered %q: the commit that raced the sweep was lost", got[:9])
	}

	// With A done, B coordinates, and its image carries the commit.
	if err := nodes[1].CoordinatedCheckpoint(locks, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := storeImage()[:9]; string(got) != "new-value" {
		t.Fatalf("store image after the second coordinator's checkpoint: %q", got)
	}
}
