package coherency

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"lbc/internal/metrics"
	"lbc/internal/netproto"
	"lbc/internal/rvm"
	"lbc/internal/wal"
)

func piggybackCluster(t *testing.T, k int, size int) []*Node {
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
		n, err := New(Options{
			RVM: r, Transport: hub.Endpoint(ids[i]), Nodes: ids,
			Propagation: Piggyback,
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

func TestPiggybackBasic(t *testing.T) {
	nodes := piggybackCluster(t, 2, 1024)
	commitWrite(t, nodes[0], 1, 100, []byte("on the token"))
	// No broadcast traffic in piggyback mode.
	if got := nodes[0].Stats().Counter(metrics.CtrMsgsSent); got != 0 {
		t.Fatalf("piggyback writer broadcast %d messages", got)
	}
	got := readUnder(t, nodes[1], 1, 100, 12)
	if string(got) != "on the token" {
		t.Fatalf("reader sees %q", got)
	}
	if nodes[0].Stats().Counter("token_piggyback_recs") == 0 {
		t.Fatal("no records piggybacked on the token")
	}
}

func TestPiggybackChainThroughThreeNodes(t *testing.T) {
	nodes := piggybackCluster(t, 3, 1024)
	commitWrite(t, nodes[0], 1, 0, []byte("v1"))
	commitWrite(t, nodes[1], 1, 0, []byte("v2"))
	// Node 3 never saw any broadcast; the token must deliver both
	// updates (in order) when it finally acquires.
	got := readUnder(t, nodes[2], 1, 0, 2)
	if string(got) != "v2" {
		t.Fatalf("node 3 sees %q", got)
	}
}

func TestPiggybackManyRounds(t *testing.T) {
	nodes := piggybackCluster(t, 3, 4096)
	for i := 0; i < 15; i++ {
		w := nodes[i%3]
		commitWrite(t, w, 1, uint64((i%8)*64), []byte(fmt.Sprintf("round-%02d", i)))
	}
	// Quiesce everyone through the lock, then compare images.
	for _, n := range nodes {
		tx := n.Begin(rvm.NoRestore)
		if err := tx.Acquire(1); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Commit(rvm.NoFlush); err != nil {
			t.Fatal(err)
		}
	}
	base := nodes[0].RVM().Region(1).Bytes()
	for i := 1; i < 3; i++ {
		if !bytes.Equal(base, nodes[i].RVM().Region(1).Bytes()) {
			t.Fatalf("node %d diverged", i+1)
		}
	}
}

func TestPiggybackRetentionDiscard(t *testing.T) {
	nodes := piggybackCluster(t, 3, 1024)
	const lock = 1
	// Writer commits 5 updates; all retained (peers haven't seen them).
	for i := 0; i < 5; i++ {
		commitWrite(t, nodes[0], lock, uint64(i*8), []byte("x"))
	}
	if got := nodes[0].RetainedRecords(lock); got != 5 {
		t.Fatalf("writer retains %d records, want 5", got)
	}
	// Node 2 acquires: it now has the records, but node 3 does not, so
	// nothing can be discarded yet ("the most out-of-date peer").
	readUnder(t, nodes[1], lock, 0, 8)
	if got := nodes[1].RetainedRecords(lock); got != 5 {
		t.Fatalf("node 2 retains %d records, want 5 (node 3 still needs them)", got)
	}
	// Node 3 acquires: every cluster member has the records; the next
	// pass may discard. Cycle the token once more to flush.
	readUnder(t, nodes[2], lock, 0, 8)
	readUnder(t, nodes[0], lock, 0, 8)
	if got := nodes[0].RetainedRecords(lock); got != 0 {
		t.Fatalf("after full token cycle, node 1 still retains %d records", got)
	}
}

func TestPiggybackWriterRotation(t *testing.T) {
	// Each node in turn writes and the value survives the rotation —
	// records from multiple writers ride the same token.
	nodes := piggybackCluster(t, 3, 1024)
	for round := 0; round < 3; round++ {
		for i, n := range nodes {
			tx := n.Begin(rvm.NoRestore)
			if err := tx.Acquire(1); err != nil {
				t.Fatal(err)
			}
			// Verify the previous writer's value is visible.
			if round > 0 || i > 0 {
				prev := (round*3 + i - 1) % 100
				want := fmt.Sprintf("w%02d", prev)
				got := string(n.RVM().Region(1).Bytes()[:3])
				if got != want {
					t.Fatalf("round %d node %d: sees %q, want %q", round, i+1, got, want)
				}
			}
			cur := fmt.Sprintf("w%02d", (round*3+i)%100)
			if err := tx.Write(n.RVM().Region(1), 0, []byte(cur)); err != nil {
				t.Fatal(err)
			}
			if _, err := tx.Commit(rvm.NoFlush); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestPiggybackRandomConvergence is the convergence property under
// token-piggyback propagation: random locked writes from every node,
// then identical images after quiescing through the locks.
func TestPiggybackRandomConvergence(t *testing.T) {
	const (
		kLocks = 3
		segLen = 256
	)
	for trial := 0; trial < 3; trial++ {
		nodes := piggybackCluster(t, 3, kLocks*segLen)
		var wg sync.WaitGroup
		for i := range nodes {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				r := rand.New(rand.NewSource(int64(trial*10 + i)))
				for k := 0; k < 20; k++ {
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
				t.Fatalf("trial %d: node %d diverged under piggyback", trial, i+1)
			}
		}
	}
}

// tokenRecord is a committed record under lock 1, as a token carries it.
func tokenRecord() *wal.TxRecord {
	return &wal.TxRecord{
		Node: 1, TxSeq: 7,
		Locks:  []wal.LockRec{{LockID: 1, Seq: 3, PrevWriteSeq: 2, Wrote: true}},
		Ranges: []wal.RangeRec{{Region: 1, Off: 40, Data: []byte("riding the token")}},
	}
}

// tokenBlob returns the blob node 1 of a two-node piggyback cluster
// attaches when it passes lock 1 to node 2 after committing rec.
func tokenBlob(tb testing.TB, wire WireFormat, rec *wal.TxRecord) []byte {
	tb.Helper()
	r, err := rvm.Open(rvm.Options{Node: 1})
	if err != nil {
		tb.Fatal(err)
	}
	n, err := New(Options{
		RVM: r, Transport: netproto.NewHub().Endpoint(1),
		Nodes:       []netproto.NodeID{1, 2},
		Propagation: Piggyback, Wire: wire,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { n.Close() })
	n.retainRecord(rec)
	return n.PrepareToken(1, 2)
}

// TestTokenBlobHonoursWireFormat: the records on a token are the tagged
// records of a batch frame, in the node's wire format, and decode back
// to what was committed.
func TestTokenBlobHonoursWireFormat(t *testing.T) {
	for _, c := range []struct {
		wire WireFormat
		tag  byte
	}{{Compressed, batchFmtCompressed}, {Standard, batchFmtStandard}} {
		blob := tokenBlob(t, c.wire, tokenRecord())
		nSeen := int(binary.LittleEndian.Uint16(blob))
		parts, err := netproto.SplitBatch(blob[2+12*nSeen:])
		if err != nil {
			t.Fatalf("wire %d: records are not a batch frame: %v", c.wire, err)
		}
		if len(parts) != 1 || parts[0][0] != c.tag {
			t.Fatalf("wire %d: %d records, first tag %#x; want one with tag %#x", c.wire, len(parts), parts[0][0], c.tag)
		}
		_, recs, err := decodeTokenBlob(blob)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 1 || recs[0].TxSeq != 7 || string(recs[0].Ranges[0].Data) != "riding the token" {
			t.Fatalf("wire %d: decoded %+v", c.wire, recs)
		}
	}
}

// TestTokenBlobHostileCounts: a record count of 2^32-1 in a six-byte
// blob, and a seen-vector longer than the blob, are decode errors from
// the sender. Neither may allocate by the count it claims.
func TestTokenBlobHostileCounts(t *testing.T) {
	n := piggybackCluster(t, 1, 1024)[0]
	for i, blob := range [][]byte{
		{0, 0, 0xff, 0xff, 0xff, 0xff}, // no seen entries, 2^32-1 records
		{3, 0, 1, 2, 3, 4, 5, 6},       // three seen entries in six bytes
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		n.TokenArrived(1, 2, blob)
		runtime.ReadMemStats(&after)
		if got := n.Stats().Counter(metrics.DecodeErrorsFrom(2)); got != int64(i+1) {
			t.Fatalf("blob %d: decode errors from node 2 = %d, want %d", i, got, i+1)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Fatalf("blob %d: decoding allocated %d bytes", i, alloc)
		}
	}
	if got := n.RetainedRecords(1); got != 0 {
		t.Fatalf("malformed blobs left %d retained records", got)
	}
}

// FuzzTokenBlob feeds the token-blob decoder arbitrary bytes: it must
// return an error or records without panicking or allocating by an
// unchecked count, and a blob that decodes must hold at least the bytes
// its counts imply.
func FuzzTokenBlob(f *testing.F) {
	blob := tokenBlob(f, Compressed, tokenRecord())
	f.Add(blob)
	for _, cut := range []int{1, 2, 6, 14, len(blob) / 2, len(blob) - 1} {
		f.Add(blob[:cut])
	}
	f.Add(tokenBlob(f, Standard, tokenRecord()))
	f.Add([]byte{0, 0, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, b []byte) {
		seen, recs, err := decodeTokenBlob(b)
		if err != nil {
			return
		}
		if min := 2 + 12*len(seen) + 4 + 5*len(recs); min > len(b) {
			t.Fatalf("%d seen entries and %d records decoded from %d bytes", len(seen), len(recs), len(b))
		}
	})
}
