package lbc

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"lbc/internal/metrics"
	"lbc/internal/obs"
)

// segmentedCluster maps one region carved into segs segments of segLen
// bytes (lock id = segment index) on every node of a fresh cluster.
func segmentedCluster(t *testing.T, k, segs, segLen int, opts ...Option) *Cluster {
	t.Helper()
	c, err := NewLocalCluster(k, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if err := c.MapAll(1, segs*segLen); err != nil {
		t.Fatal(err)
	}
	for l := 0; l < segs; l++ {
		c.AddSegmentAll(Segment{LockID: uint32(l), Region: 1,
			Off: uint64(l * segLen), Len: uint64(segLen)})
	}
	if err := c.Barrier(1); err != nil {
		t.Fatal(err)
	}
	return c
}

// writeSegment commits one flushed write at the head of a segment.
func writeSegment(t *testing.T, n *Node, lock uint32, segLen int, payload string) {
	t.Helper()
	tx := n.Begin(NoRestore)
	if err := tx.Acquire(lock); err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(n.RVM().Region(1), uint64(int(lock)*segLen), []byte(payload)); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(Flush); err != nil {
		t.Fatal(err)
	}
}

// readSegments takes every listed lock shared on n: the acquire
// interlock returns only once every committed write under the lock is
// installed, so afterwards n's image of those segments is current.
func readSegments(t *testing.T, n *Node, locks []uint32) {
	t.Helper()
	for _, l := range locks {
		tx := n.Begin(NoRestore)
		if err := tx.AcquireShared(l); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Commit(NoFlush); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCheckpointStoreTrafficIsPageGranular is the count-based regression
// for the checkpoint's store traffic on the production shape (TCP mesh,
// store-backed logs and images): one checkpoint of a 16 MiB region must
// never read or rewrite a whole image, must ship about the region's
// bytes once, and must do so in a few dozen vectored requests — not one
// per page, and not a load + store of the image per page, which is what
// it cost before store.Client wrote pages in place — and eager nodes
// must not re-read each other's logs in the sync round. Then a node
// crashes and restarts from the checkpointed image plus the log tails.
func TestCheckpointStoreTrafficIsPageGranular(t *testing.T) {
	const (
		segs   = 1024
		segLen = 16 << 10
		region = segs * segLen
	)
	c := segmentedCluster(t, 3, segs, segLen, WithTCP(), WithStore())

	// Every node writes segments spread over the whole region.
	var written []uint32
	for i := 0; i < 48; i++ {
		lock := uint32(i * (segs / 48))
		writeSegment(t, c.Node(i%3), lock, segLen, fmt.Sprintf("before-ckpt-%d", i))
		written = append(written, lock)
	}

	st := c.Store().Stats()
	before := map[string]int64{}
	for _, name := range []string{"op_load_region", "op_store_region", "op_read_log", "op_store_pages", "store_pages_bytes"} {
		before[name] = st.Counter(name)
	}
	if err := c.Checkpoint(0, 60*time.Second); err != nil {
		t.Fatal(err)
	}
	delta := func(name string) int64 { return st.Counter(name) - before[name] }
	if n := delta("op_load_region"); n != 0 {
		t.Errorf("checkpoint read %d whole images", n)
	}
	if n := delta("op_store_region"); n != 0 {
		t.Errorf("checkpoint rewrote %d whole images", n)
	}
	// Each node's head trim reads its own log's tail once (the remote log
	// has no atomic trim); any read beyond that is a peer-log drain.
	if n := delta("op_read_log"); n > int64(c.Size()) {
		t.Errorf("checkpoint read logs %d times: nodes that never consume peer logs drained them", n)
	}
	if n := delta("store_pages_bytes"); n < region || n > region+region/4 {
		t.Errorf("checkpoint wrote %d page bytes for a %d-byte region", n, region)
	}
	if n := delta("op_store_pages"); n == 0 || n > 64 {
		t.Errorf("checkpoint issued %d page-write requests, want 1..64", n)
	}

	// A tail the checkpoint did not cover, then crash and restart: node 2
	// comes back from the checkpointed image plus the logs.
	for i := 0; i < 6; i++ {
		writeSegment(t, c.Node(i%2), written[i], segLen, fmt.Sprintf("after-ckpt-%d", i))
	}
	readSegments(t, c.Node(0), written)
	readSegments(t, c.Node(1), written)
	if err := c.Crash(2); err != nil {
		t.Fatal(err)
	}
	if err := c.Restart(2); err != nil {
		t.Fatal(err)
	}
	want := c.Node(0).RVM().Region(1).Bytes()
	for i := 1; i < 3; i++ {
		if !bytes.Equal(c.Node(i).RVM().Region(1).Bytes(), want) {
			t.Errorf("node %d's image diverges from node 1's after the restart", i+1)
		}
	}
	if !bytes.HasPrefix(want[int(written[0])*segLen:], []byte("after-ckpt-0")) ||
		!bytes.HasPrefix(want[int(written[47])*segLen:], []byte("before-ckpt-47")) {
		t.Error("converged image is missing committed writes")
	}
}

// TestCheckpointSpans: a traced checkpoint explains itself. Every phase
// leaves a span stamped with the coordinator's id and the checkpoint
// epoch, every swept segment a child carrying its lock and byte count,
// and the two checkpoint metrics move.
func TestCheckpointSpans(t *testing.T) {
	const (
		segs   = 8
		segLen = 4096
	)
	c := segmentedCluster(t, 2, segs, segLen, WithStore(), WithTracing(1<<12))
	writeSegment(t, c.Node(1), 3, segLen, "traced")
	if err := c.Checkpoint(0, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	count := map[string]int{}
	locks := map[uint32]bool{}
	for _, s := range c.Tracer(0).Spans() {
		if !strings.HasPrefix(s.Name, "ckpt.") {
			continue
		}
		if s.Node != 1 || s.Tx != 1 {
			t.Errorf("span %s stamped node=%d epoch=%d, want coordinator 1 epoch 1", s.Name, s.Node, s.Tx)
		}
		count[s.Name]++
		switch s.Name {
		case obs.SpanCkptSweepLock:
			locks[s.Lock] = true
			if s.N != segLen {
				t.Errorf("sweep of lock %d reports %d bytes, want %d", s.Lock, s.N, segLen)
			}
		case obs.SpanCkptSweep:
			if s.N != segs*segLen {
				t.Errorf("sweep reports %d bytes, want %d", s.N, segs*segLen)
			}
		}
	}
	for _, name := range []string{obs.SpanCkptBegin, obs.SpanCkptSweep, obs.SpanCkptQuiesce,
		obs.SpanCkptSeal, obs.SpanCkptSync, obs.SpanCkptTrim} {
		if count[name] != 1 {
			t.Errorf("%d %s spans, want 1", count[name], name)
		}
	}
	if len(locks) != segs {
		t.Errorf("per-lock sweep spans cover %d locks, want %d", len(locks), segs)
	}
	stats := c.Node(0).Stats()
	if got := stats.Counter(metrics.CtrCkptSweepBytes); got != segs*segLen {
		t.Errorf("%s = %d, want %d", metrics.CtrCkptSweepBytes, got, segs*segLen)
	}
	if stats.Counter(metrics.CtrCkptQuiesceNS) <= 0 {
		t.Errorf("%s did not move", metrics.CtrCkptQuiesceNS)
	}
}
