package coherency

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"lbc/internal/bufpool"
	"lbc/internal/metrics"
	"lbc/internal/netproto"
	"lbc/internal/rvm"
	"lbc/internal/wal"
)

// Buffer-ownership tests for the pooled receive path: once
// onUpdateBatch returns, the caller may mutate or recycle its frame
// buffer freely — the record has been copied out into a pooled arena,
// even while the record sits parked waiting for a predecessor.

// newPoolReceiver builds a single-chain receiving node.
func newPoolReceiver(t *testing.T) (*Node, *rvm.Region) {
	t.Helper()
	hub := netproto.NewHub()
	r, err := rvm.Open(rvm.Options{Node: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	n, err := New(Options{
		RVM: r, Transport: hub.Endpoint(1),
		Nodes:        []netproto.NodeID{1, 2, 3},
		applyWorkers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	reg, err := n.MapRegion(1, 4096)
	if err != nil {
		t.Fatal(err)
	}
	n.AddSegment(Segment{LockID: 0, Region: 1, Off: 0, Len: 4096})
	return n, reg
}

// chainFrame encodes a single-lock record for chain 0 as a batch-of-one
// frame in a pooled buffer.
func chainFrame(t *testing.T, sender uint32, txSeq, seq uint64, off uint64, data []byte) []byte {
	t.Helper()
	f := batchFrame(t, &wal.TxRecord{
		Node: sender, TxSeq: txSeq,
		Locks:  []wal.LockRec{{LockID: 0, Seq: seq, PrevWriteSeq: seq - 1, Wrote: true}},
		Ranges: []wal.RangeRec{{Region: 1, Off: off, Data: data}},
	})
	return append(bufpool.Get(len(f)), f...)
}

// TestReceiveBufferIsolation delivers an out-of-order record (which
// parks, holding its copy), then scribbles over and recycles the frame
// while the record is still parked. The installed bytes must be the
// originals.
func TestReceiveBufferIsolation(t *testing.T) {
	n, reg := newPoolReceiver(t)

	p1 := bytes.Repeat([]byte{0x11}, 256)
	p2 := bytes.Repeat([]byte{0x22}, 256)
	f2 := chainFrame(t, 2, 1, 2, 512, p2)
	n.onUpdateBatch(2, f2) // parks: seq 1 not applied yet

	// The caller owns the frame again: mutate it, recycle it, and churn
	// the pool so a reused buffer would be overwritten.
	for i := range f2 {
		f2[i] = 0xFF
	}
	size := len(f2)
	bufpool.Put(f2)
	for k := 0; k < 16; k++ {
		b := bufpool.Get(size)
		b = append(b, bytes.Repeat([]byte{0xEE}, size)...)
		bufpool.Put(b)
	}

	f1 := chainFrame(t, 2, 2, 1, 0, p1)
	n.onUpdateBatch(2, f1)
	bufpool.Put(f1)

	if err := n.Quiesce(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := reg.Bytes()[0:256]; !bytes.Equal(got, p1) {
		t.Fatalf("seq-1 bytes corrupted: got %02x...", got[0])
	}
	if got := reg.Bytes()[512:768]; !bytes.Equal(got, p2) {
		t.Fatalf("parked record's bytes corrupted: got %02x...", got[0])
	}
}

// TestArenaRecycledAfterInstall checks that the receive path actually
// returns record arenas to the pool once records reach a terminal
// state (the zero-copy claim is recycling, not just copying less).
func TestArenaRecycledAfterInstall(t *testing.T) {
	n, reg := newPoolReceiver(t)
	_, _, putsBefore := bufpool.Stats()

	const records = 50
	payload := bytes.Repeat([]byte{0x5a}, 128)
	for seq := uint64(1); seq <= records; seq++ {
		f := chainFrame(t, 2, seq, seq, (seq%16)*128, payload)
		n.onUpdateBatch(2, f)
		bufpool.Put(f)
	}
	if err := n.Quiesce(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := reg.Bytes()[128:256]; !bytes.Equal(got, payload) {
		t.Fatal("installed bytes wrong")
	}
	_, _, putsAfter := bufpool.Stats()
	// One arena Put per record, plus our frame Puts; other traffic only
	// adds. A pipeline that leaks arenas shows barely `records` puts
	// (the frames alone), not 2×.
	if delta := putsAfter - putsBefore; delta < 2*records {
		t.Fatalf("expected >= %d pool puts (arena recycling), got %d", 2*records, delta)
	}
}

// TestSetVersionedWhileDelivering leaves the versioned read model while
// frames arrive. A record that lands in the buffer just as the flag
// clears has nobody left to hand it over, so every round must end with
// the pipeline empty and every record of the round in the image.
func TestSetVersionedWhileDelivering(t *testing.T) {
	n, reg := newPoolReceiver(t)
	const rounds, perRound, slot = 100, 32, 128
	var seq uint64
	for r := 0; r < rounds; r++ {
		n.SetVersioned(true)
		first := seq + 1
		frames := make([][]byte, perRound)
		for i := range frames {
			seq++
			frames[i] = chainFrame(t, 2, seq, seq, (seq%perRound)*slot, bytes.Repeat([]byte{byte(seq)}, slot))
		}
		delivered := make(chan struct{})
		go func() {
			defer close(delivered)
			for _, f := range frames {
				n.onUpdateBatch(2, f)
			}
		}()
		n.SetVersioned(false)
		<-delivered
		if err := n.Quiesce(5 * time.Second); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		if d := n.ApplyQueueDepth(); d != 0 {
			t.Fatalf("round %d: apply queue depth %d after Quiesce", r, d)
		}
		for s := first; s <= seq; s++ {
			if got := reg.Bytes()[(s%perRound)*slot]; got != byte(s) {
				t.Fatalf("round %d: record %d missing from the image (slot holds %02x)", r, s, got)
			}
		}
	}
}

// eagerTransport hands a frame to the update handler the moment it is
// registered, as a transport does for a restarting node whose peers
// already have frames queued for it.
type eagerTransport struct {
	netproto.Transport
	frame []byte
}

func (e eagerTransport) Handle(typ uint8, h netproto.Handler) {
	e.Transport.Handle(typ, h)
	if typ == MsgUpdateBatch {
		h(2, e.frame)
	}
}

// TestHandlersRegisteredAfterEngine: the update handlers submit to the
// apply engine, so New must have built it before it registers them.
func TestHandlersRegisteredAfterEngine(t *testing.T) {
	r, err := rvm.Open(rvm.Options{Node: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	frame := chainFrame(t, 2, 1, 1, 0, []byte("early"))
	n, err := New(Options{
		RVM:       r,
		Transport: eagerTransport{netproto.NewHub().Endpoint(1), frame},
		Nodes:     []netproto.NodeID{1, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	// No region is mapped yet, so the install fails; what matters is that
	// the record went through the pipeline to a terminal state.
	if err := n.Quiesce(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := n.Stats().Counter(metrics.CtrUpdateFramesRecv); got != 1 {
		t.Fatalf("update frames received = %d, want 1", got)
	}
}

// TestNodeCloseStopsGoroutines: everything New starts (apply workers,
// lock manager, checkpoint state) is gone once Close returns.
func TestNodeCloseStopsGoroutines(t *testing.T) {
	r, err := rvm.Open(rvm.Options{Node: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	tr := netproto.NewHub().Endpoint(1)
	base := runtime.NumGoroutine()

	n, err := New(Options{RVM: r, Transport: tr, Nodes: []netproto.NodeID{1, 2}, applyWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.MapRegion(1, 4096); err != nil {
		t.Fatal(err)
	}
	n.AddSegment(Segment{LockID: 0, Region: 1, Off: 0, Len: 4096})
	n.onUpdateBatch(2, chainFrame(t, 2, 1, 1, 0, []byte("applied")))
	n.onUpdateBatch(2, chainFrame(t, 2, 3, 3, 0, []byte("parked"))) // predecessor never arrives
	waitFor(t, func() bool { return n.Parked() == 1 })
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before New", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}
