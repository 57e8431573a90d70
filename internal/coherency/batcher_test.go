package coherency

import (
	"fmt"
	"testing"

	"lbc/internal/netproto"
	"lbc/internal/wal"
)

// batchFrame encodes records as a plain MsgUpdateBatch payload, each
// compressed behind its format tag: the frame a sender ships for them.
func batchFrame(t testing.TB, recs ...*wal.TxRecord) []byte {
	t.Helper()
	parts := make([][]byte, len(recs))
	for i, rec := range recs {
		enc, err := wal.AppendCompressed([]byte{batchFmtCompressed}, rec)
		if err != nil {
			t.Fatal(err)
		}
		parts[i] = enc
	}
	return netproto.AppendBatch(nil, parts)
}

// windowsDrained reports whether every send window of n is empty. A
// commit admits its record to the windows of its recipients before it
// returns, and a window drains only after the frame carrying the record
// has been sent and counted; so once this holds, the sender-side
// counters cover every commit that has returned.
func windowsDrained(n *Node) bool {
	n.psMu.Lock()
	defer n.psMu.Unlock()
	for _, ps := range n.peerSenders {
		ps.mu.Lock()
		busy := ps.inFlight > 0
		ps.mu.Unlock()
		if busy {
			return false
		}
	}
	return true
}

// TestBatchedBroadcastDelivers drives writer/reader rounds over a
// cluster with batched update frames and checks the reader observes
// every committed value in order, i.e. the per-lock interlock holds
// across batch boundaries.
func TestBatchedBroadcastDelivers(t *testing.T) {
	nodes := testCluster(t, 2, 1024, nil)
	for i := 0; i < 20; i++ {
		commitWrite(t, nodes[0], 1, 0, []byte(fmt.Sprintf("round-%02d", i)))
		got := readUnder(t, nodes[1], 1, 0, 8)
		if string(got) != fmt.Sprintf("round-%02d", i) {
			t.Fatalf("round %d: reader sees %q", i, got)
		}
	}
	if nodes[0].Stats().Counter("batch_frames") == 0 {
		t.Fatal("no batch frames were sent")
	}
}

// TestBroadcastFallsBackToStandardOnOverflow broadcasts a record the
// compressed wire encoding cannot represent (more than 2^16 lock
// records); the sender must fall back to the standard encoding inside
// the batch frame and the receiver must still apply it.
func TestBroadcastFallsBackToStandardOnOverflow(t *testing.T) {
	nodes := testCluster(t, 2, 1024, nil)
	rec := &wal.TxRecord{
		Node: 9, TxSeq: 1,
		Locks:  make([]wal.LockRec, 1<<16),
		Ranges: []wal.RangeRec{{Region: 1, Off: 0, Data: []byte("wide")}},
	}
	rec.Locks[0] = wal.LockRec{LockID: 1, Seq: 1, PrevWriteSeq: 0, Wrote: true}
	for i := 1; i < len(rec.Locks); i++ {
		rec.Locks[i] = wal.LockRec{LockID: 1, Seq: 1, Wrote: false}
	}
	nodes[0].broadcast(rec)
	waitFor(t, func() bool { return nodes[1].Locks().Applied(1) == 1 })
	if got := string(region(t, nodes[1]).Bytes()[:4]); got != "wide" {
		t.Fatalf("receiver sees %q, want %q", got, "wide")
	}
	if nodes[0].Stats().Counter("compress_fallbacks") == 0 {
		t.Fatal("oversized record did not take the standard-encoding fallback")
	}
}
