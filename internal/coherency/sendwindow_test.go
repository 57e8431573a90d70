package coherency

import (
	"testing"
	"time"

	"lbc/internal/metrics"
	"lbc/internal/netproto"
	"lbc/internal/rvm"
)

// gatedTransport blocks batch-frame sends until the gate opens, so a
// test can hold the send window full for as long as it likes. Every
// other message type (lock protocol, region announcements) passes
// through untouched.
type gatedTransport struct {
	netproto.Transport
	gate chan struct{}
}

func (g *gatedTransport) Send(to netproto.NodeID, typ uint8, payload []byte) error {
	if typ == MsgUpdateBatch || typ == MsgUpdateBatchC {
		<-g.gate
	}
	return g.Transport.Send(to, typ, payload)
}

// TestSendWindowStallBackpressure pins the flow-control story: with a
// one-byte window and a wedged peer, the second commit's enqueue must
// stall (counted, with its wait time observed into the stall
// histogram) instead of buffering without bound, and must release the
// moment the in-flight frame completes. No pull backstop is
// configured, so nothing may be dropped: the receiver ends up with
// both committed values.
func TestSendWindowStallBackpressure(t *testing.T) {
	hub := netproto.NewHub()
	ids := []netproto.NodeID{1, 2}
	gate := make(chan struct{})
	nodes := make([]*Node, 2)
	for i, id := range ids {
		r, err := rvm.Open(rvm.Options{Node: uint32(id)})
		if err != nil {
			t.Fatal(err)
		}
		var tr netproto.Transport = hub.Endpoint(id)
		if i == 0 {
			tr = &gatedTransport{Transport: tr, gate: gate}
		}
		n, err := New(Options{
			RVM: r, Transport: tr, Nodes: ids,
			sendWindow: 1, // any payload beyond an in-flight one stalls
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
		t.Cleanup(func() { n.Close() })
	}
	for _, n := range nodes {
		if _, err := n.MapRegion(1, 256); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range nodes {
		if err := n.WaitPeers(1, 1, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}

	st := nodes[0].Stats()

	// Commit 1: enters the empty window (oversized payloads must not
	// deadlock), and its frame wedges in the gated transport.
	commitWrite(t, nodes[0], 1, 0, []byte("first!!!"))

	// Commit 2: the window is full, so the broadcast's enqueue blocks
	// the committing goroutine — that is the backpressure under test.
	done := make(chan struct{})
	go func() {
		defer close(done)
		commitWrite(t, nodes[0], 1, 8, []byte("second!!"))
	}()
	waitFor(t, func() bool { return st.Counter(metrics.CtrSendStalls) >= 1 })
	select {
	case <-done:
		t.Fatal("stalled commit returned while the window was still full")
	case <-time.After(50 * time.Millisecond):
	}

	// Open the gate: the in-flight frame completes, the window drains,
	// and the stalled enqueue must release promptly.
	close(gate)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("stalled commit never released after the window drained")
	}

	// Both values reach the peer — a stall is a delay, never a loss.
	waitFor(t, func() bool { return nodes[1].Locks().Applied(1) == 2 })
	got := region(t, nodes[1]).Bytes()
	if string(got[:8]) != "first!!!" || string(got[8:16]) != "second!!" {
		t.Fatalf("receiver image %q", got[:16])
	}

	if c := st.Counter(metrics.CtrSendStalls); c < 1 {
		t.Errorf("send_window_stalls = %d, want >= 1", c)
	}
	if c := st.Counter(metrics.CtrSlowPeerDrops); c != 0 {
		t.Errorf("slow_peer_drops = %d without a pull backstop; records were dropped", c)
	}
	h, ok := st.Hists()[metrics.HistSendStallNS]
	if !ok || h.Count < 1 {
		t.Fatalf("send_stall_ns histogram empty: %+v", h)
	}
	if q := h.Quantile(0.5); q <= 0 {
		t.Errorf("send_stall_ns p50 = %d, want > 0", q)
	}
	if q := h.Quantile(0.99); q < h.Quantile(0.5) {
		t.Errorf("quantiles not monotone: p99 %d < p50 %d", q, h.Quantile(0.5))
	}
}
