package coherency

import (
	"bytes"
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

// compressible returns n bytes of repeating pattern — enough structure
// that a batch carrying it clears the compression size heuristic.
func compressible(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i % 7)
	}
	return b
}

// TestCompressedBatchDelivers drives writes big enough to trip the
// compression heuristic and checks (a) the reader converges through
// MsgUpdateBatchC frames, (b) the wire-byte counter runs below the raw
// counter, and (c) the per-peer byte counter tracks the wire total.
func TestCompressedBatchDelivers(t *testing.T) {
	nodes := testCluster(t, 2, 4096, nil)
	for i := 0; i < 10; i++ {
		commitWrite(t, nodes[0], 1, 0, compressible(512))
		got := readUnder(t, nodes[1], 1, 0, 512)
		if !bytes.Equal(got, compressible(512)) {
			t.Fatalf("round %d: reader diverged", i)
		}
	}
	waitFor(t, func() bool { return windowsDrained(nodes[0]) })
	st := nodes[0].Stats()
	if st.Counter(metrics.CtrCompressedFrames) == 0 {
		t.Fatal("no compressed frames were sent")
	}
	wire, raw := st.Counter(metrics.CtrBytesSent), st.Counter(metrics.CtrBytesSentRaw)
	if wire >= raw {
		t.Fatalf("wire bytes %d not below raw bytes %d", wire, raw)
	}
	if per := st.Counter(metrics.BytesSentTo(2)); per != wire {
		t.Fatalf("per-peer bytes %d != total wire bytes %d (single-peer cluster)", per, wire)
	}
}

// TestNoCompressOption pins the opt-out: with NoCompress set every
// frame ships plain even when the payload would compress well.
func TestNoCompressOption(t *testing.T) {
	nodes := testCluster(t, 2, 4096, func(i int, o *Options) { o.NoCompress = true })
	for i := 0; i < 5; i++ {
		commitWrite(t, nodes[0], 1, 0, compressible(512))
		readUnder(t, nodes[1], 1, 0, 512)
	}
	waitFor(t, func() bool { return windowsDrained(nodes[0]) })
	st := nodes[0].Stats()
	if st.Counter(metrics.CtrCompressedFrames) != 0 {
		t.Fatal("NoCompress node sent compressed frames")
	}
	if st.Counter(metrics.CtrBytesSent) != st.Counter(metrics.CtrBytesSentRaw) {
		t.Fatal("NoCompress wire bytes diverge from raw bytes")
	}
}

// TestSmallBatchSkipsCompression checks the other side of the
// heuristic: tiny batches ship plain and count a skip... of the
// frames below compressMinBytes none may arrive compressed.
func TestSmallBatchSkipsCompression(t *testing.T) {
	nodes := testCluster(t, 2, 1024, nil)
	for i := 0; i < 5; i++ {
		commitWrite(t, nodes[0], 1, 0, []byte{byte(i)})
		readUnder(t, nodes[1], 1, 0, 1)
	}
	if nodes[0].Stats().Counter(metrics.CtrCompressedFrames) != 0 {
		t.Fatal("sub-threshold batches were compressed")
	}
	if nodes[0].Stats().Counter(metrics.CtrBatchFrames) == 0 {
		t.Fatal("no batch frames at all — heuristic test exercised nothing")
	}
}

// mustFrameC builds a well-formed MsgUpdateBatchC payload carrying the
// given records, bypassing the sender (tests corrupt it afterwards).
func mustFrameC(t testing.TB, recs ...*wal.TxRecord) []byte {
	t.Helper()
	inner := batchFrame(t, recs...)
	frame := make([]byte, 4)
	putU32(frame, uint32(len(inner)))
	return wal.CompressChunks(frame, inner)
}

// TestUpdateBatchCDecodeErrors feeds the compressed-frame handler the
// malformed inputs the fuzzers hunt for — short payloads, bomb-sized
// declared lengths, corrupt streams, length mismatches, bad inner tags
// — and requires a decode-error count instead of a panic or a poisoned
// apply pipeline.
func TestUpdateBatchCDecodeErrors(t *testing.T) {
	nodes := testCluster(t, 1, 1024, nil)
	n := nodes[0]
	rec := &wal.TxRecord{
		Node: 9, TxSeq: 1,
		Locks:  []wal.LockRec{{LockID: 5, Seq: 1, Wrote: true}},
		Ranges: []wal.RangeRec{{Region: 1, Off: 0, Data: []byte("ok")}},
	}
	good := mustFrameC(t, rec)

	cases := map[string][]byte{
		"empty":        nil,
		"short header": {0x01, 0x02},
		"zero length":  {0, 0, 0, 0},
		"bomb length":  append([]byte{0xFF, 0xFF, 0xFF, 0xFF}, good[4:]...),
		"corrupt body": append(append([]byte(nil), good[:6]...), 0xEE, 0xEE, 0xEE),
		"length lies": func() []byte {
			f := append([]byte(nil), good...)
			putU32(f[0:4], getU32(f[0:4])+3)
			return f
		}(),
		"bad inner tag": func() []byte {
			enc, err := wal.AppendCompressed([]byte{0x7F}, rec) // unknown tag
			if err != nil {
				t.Fatal(err)
			}
			inner := make([]byte, 8)
			putU32(inner[0:4], 1)
			putU32(inner[4:8], uint32(len(enc)))
			inner = append(inner, enc...)
			frame := make([]byte, 4)
			putU32(frame, uint32(len(inner)))
			return wal.CompressChunks(frame, inner)
		}(),
	}
	before := n.Stats().Counter(metrics.CtrDecodeErrors)
	want := before
	for name, payload := range cases {
		n.onUpdateBatchC(7, payload)
		want++
		if got := n.Stats().Counter(metrics.CtrDecodeErrors); got != want {
			t.Fatalf("%s: decode_errors = %d, want %d", name, got, want)
		}
	}
	// The well-formed frame still decodes after all that abuse.
	n.onUpdateBatchC(7, good)
	if got := n.Stats().Counter(metrics.CtrDecodeErrors); got != want {
		t.Fatalf("good frame after errors: decode_errors rose to %d", got)
	}
	waitFor(t, func() bool { return n.Locks().Applied(5) == 1 })
}

// FuzzBatchFrameC mirrors the receive path for MsgUpdateBatchC as a
// pure pipeline — inflate with the declared-length check, split, decode
// every part by tag — and requires it to survive arbitrary input
// without panicking. Seeds cover a valid frame plus each corruption
// class the deterministic test pins.
func FuzzBatchFrameC(f *testing.F) {
	rec := &wal.TxRecord{
		Node: 3, TxSeq: 9,
		Locks:  []wal.LockRec{{LockID: 2, Seq: 4, PrevWriteSeq: 3, Wrote: true}},
		Ranges: []wal.RangeRec{{Region: 1, Off: 64, Data: compressible(100)}},
	}
	frame := mustFrameC(f, rec)

	f.Add(frame)
	f.Add(frame[:len(frame)/2])                             // truncated stream
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x01, 0x02, 0x03}) // bomb declared length
	f.Add([]byte{0x00, 0x00})                               // short header
	f.Fuzz(func(t *testing.T, b []byte) {
		raw, err := inflateBatch(b)
		if err != nil {
			return
		}
		parts, err := netproto.SplitBatch(raw)
		if err != nil {
			return
		}
		for _, p := range parts {
			decodeTaggedRecord(p)
		}
	})
}

// stallTransport wraps a Transport and blocks update-frame sends to
// one peer until released. It deliberately embeds the interface (so
// its method set lacks SendV): the batcher's SendVec falls back to the
// flatten+Send path and every frame funnels through the gate.
type stallTransport struct {
	netproto.Transport
	victim  netproto.NodeID
	mu      sync.Mutex
	release chan struct{}
}

func newStallTransport(inner netproto.Transport, victim netproto.NodeID) *stallTransport {
	return &stallTransport{Transport: inner, victim: victim, release: make(chan struct{})}
}

func (s *stallTransport) Send(to netproto.NodeID, typ uint8, payload []byte) error {
	if to == s.victim && (typ == MsgUpdateBatch || typ == MsgUpdateBatchC) {
		s.mu.Lock()
		ch := s.release
		s.mu.Unlock()
		<-ch
	}
	return s.Transport.Send(to, typ, payload)
}

func (s *stallTransport) unstall() {
	s.mu.Lock()
	select {
	case <-s.release:
	default:
		close(s.release)
	}
	s.mu.Unlock()
}

// TestBackpressureBoundsWindow wedges one peer's transport and commits
// until the writer's send window to that peer fills: commits must stop
// at the bound (bounded memory — no unbounded queue behind a slow
// peer), frames already admitted for the healthy peer must still
// arrive, and releasing the stall must drain everything with no
// deadlock. No pull backstop is configured, so dropping is not an
// option and blocking is the only correct behavior.
func TestBackpressureBoundsWindow(t *testing.T) {
	const window = 400
	var st *stallTransport
	nodes := testCluster(t, 3, 4096, func(i int, o *Options) {
		o.sendWindow = window
		if i == 0 {
			st = newStallTransport(o.Transport, 3)
			o.Transport = st
		}
	})
	// Unstall before the cluster's Close cleanups run, or the wedged
	// sender goroutine would hang Node.Close's wg.Wait.
	t.Cleanup(func() { st.unstall() })

	const total = 30
	var committed atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < total; i++ {
			commitWrite(t, nodes[0], 1, 0, compressible(100))
			committed.Add(1)
		}
	}()

	// The committer must wedge: window 400 holds only a few ~100-byte
	// records, so the enqueue for peer 3 blocks and the commit loop
	// stops well short of total.
	waitFor(t, func() bool { return nodes[0].Stats().Counter(metrics.CtrSendStalls) > 0 })
	stalledAt := committed.Load()
	if stalledAt >= total {
		t.Fatalf("all %d commits ran through a %d-byte window behind a dead peer", total, window)
	}
	// Commits admitted before the wedge still reach the healthy peer.
	waitFor(t, func() bool { return nodes[1].Locks().Applied(1) >= uint64(stalledAt) })
	// And the committer stays wedged: no drops without a pull backstop,
	// and nothing has reached the wedged peer.
	if nodes[0].Stats().Counter(metrics.CtrSlowPeerDrops) != 0 {
		t.Fatal("sender dropped frames with no pull backstop configured")
	}
	if got := nodes[0].Stats().Counter(metrics.BytesSentTo(3)); got != 0 {
		t.Fatalf("%d bytes reached the wedged peer", got)
	}

	st.unstall()
	<-done
	waitFor(t, func() bool { return nodes[2].Locks().Applied(1) == total })
	got := readUnder(t, nodes[2], 1, 0, 100)
	if !bytes.Equal(got, compressible(100)) {
		t.Fatal("stalled peer diverged after release")
	}
}

// slowPeerCluster builds three store-backed nodes with the pull
// backstop, a 600-byte send window and a 30 ms stall timeout; node 1's
// update frames to node 3 wedge until the returned transport unstalls.
func slowPeerCluster(t *testing.T) ([]*Node, *stallTransport) {
	t.Helper()
	srv, err := store.NewServer("127.0.0.1:0", store.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	hub := netproto.NewHub()
	ids := []netproto.NodeID{1, 2, 3}
	var st *stallTransport
	nodes := make([]*Node, len(ids))
	for i, id := range ids {
		cli, err := store.Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cli.Close() })
		r, err := rvm.Open(rvm.Options{
			Node: uint32(id),
			Log:  cli.LogDevice(uint32(id)),
			Data: cli,
		})
		if err != nil {
			t.Fatal(err)
		}
		o := Options{
			RVM: r, Transport: hub.Endpoint(id), Nodes: ids,
			PullOnStall:      true,
			PeerLogs:         func(node uint32) wal.Device { return cli.LogDevice(node) },
			sendWindow:       600,
			sendStallTimeout: 30 * time.Millisecond,
		}
		if i == 0 {
			st = newStallTransport(o.Transport, 3)
			o.Transport = st
		}
		n, err := New(o)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
		t.Cleanup(func() { n.Close() })
	}
	t.Cleanup(func() { st.unstall() })
	for _, n := range nodes {
		if _, err := n.MapRegion(1, 4096); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range nodes {
		if err := n.WaitPeers(1, len(ids)-1, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	return nodes, st
}

// TestSlowPeerDowngradeDrops runs the same wedge with the pull
// backstop configured and a short stall timeout: instead of blocking
// forever, the sender drops the wedged peer's backlog (slow_peer_drops
// counts it), commits keep flowing, and the victim recovers the lost
// records from the server logs on its next acquire — the same path
// chaos-injected drops take.
func TestSlowPeerDowngradeDrops(t *testing.T) {
	nodes, st := slowPeerCluster(t)

	// Every commit must complete despite the wedged peer: each stall
	// resolves within the timeout by dropping the backlog.
	const total = 20
	for i := 0; i < total; i++ {
		commitWrite(t, nodes[0], 1, 0, compressible(150))
	}
	if nodes[0].Stats().Counter(metrics.CtrSlowPeerDrops) == 0 {
		t.Fatal("no slow-peer drops despite wedged transport and pull backstop")
	}
	// The healthy peer converged the eager way.
	waitFor(t, func() bool { return nodes[1].Locks().Applied(1) == total })

	// The victim recovers through the pull backstop once its transport
	// heals: acquiring the lock detects the sequence gap and refetches
	// the dropped records from the server logs.
	st.unstall()
	got := readUnder(t, nodes[2], 1, 0, 150)
	if !bytes.Equal(got, compressible(150)) {
		t.Fatal("victim did not recover dropped records via pull backstop")
	}
}

// TestSlowPeerDowngradeBehindFullFrame: when the frame wedged on the
// wire alone leaves no room in the window, dropping the (empty) backlog
// frees nothing. The downgrade then drops the new record for that peer
// too, so the commit returns after one stall timeout instead of waiting
// on a transport that may never return.
func TestSlowPeerDowngradeBehindFullFrame(t *testing.T) {
	nodes, st := slowPeerCluster(t)
	commitWrite(t, nodes[0], 1, 0, compressible(500))
	// The frame to node 3 now holds ~500 of the window's 600 bytes and
	// is stuck in Send, with nothing queued behind it.
	waitFor(t, func() bool {
		nodes[0].psMu.Lock()
		ps := nodes[0].peerSenders[3]
		nodes[0].psMu.Unlock()
		if ps == nil {
			return false
		}
		ps.mu.Lock()
		defer ps.mu.Unlock()
		return len(ps.q) == 0 && ps.inFlight > 0
	})

	done := make(chan error, 1)
	go func() {
		tx := nodes[0].Begin(rvm.NoRestore)
		if err := tx.Acquire(1); err != nil {
			done <- err
			return
		}
		if err := tx.Write(nodes[0].RVM().Region(1), 0, compressible(150)); err != nil {
			done <- err
			return
		}
		_, err := tx.Commit(rvm.NoFlush)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("commit still blocked behind the wedged frame after 5s")
	}
	if got := nodes[0].Stats().Counter(metrics.CtrSlowPeerDrops); got != 1 {
		t.Fatalf("slow_peer_drops = %d, want 1 (the new record)", got)
	}

	st.unstall()
	got := readUnder(t, nodes[2], 1, 0, 150)
	if !bytes.Equal(got, compressible(150)) {
		t.Fatal("victim did not recover the dropped record via pull backstop")
	}
}

// frameRecorder wraps a node's transport and keeps a copy of every
// compressed update frame it sends, per destination. It records only
// the vector path: a compressed frame sent through plain Send would
// reach a membership fence's copying path and fails the test instead.
type frameRecorder struct {
	netproto.Transport
	t    *testing.T
	mu   sync.Mutex
	sent map[netproto.NodeID][][]byte
}

func (r *frameRecorder) Send(to netproto.NodeID, typ uint8, payload []byte) error {
	if typ == MsgUpdateBatchC {
		r.t.Errorf("compressed frame to %d sent through Send, not SendV", to)
	}
	return r.Transport.Send(to, typ, payload)
}

func (r *frameRecorder) SendV(to netproto.NodeID, typ uint8, parts [][]byte) error {
	if typ == MsgUpdateBatchC {
		r.mu.Lock()
		r.sent[to] = append(r.sent[to], bytes.Join(parts, nil))
		r.mu.Unlock()
	}
	return netproto.SendVec(r.Transport, to, typ, parts)
}

// TestBroadcastDeflatesOnce: a record that ships alone to two peers is
// deflated once, and both peers receive the same compressed bytes.
func TestBroadcastDeflatesOnce(t *testing.T) {
	var rec *frameRecorder
	nodes := testCluster(t, 3, 4096, func(i int, o *Options) {
		if i == 0 {
			rec = &frameRecorder{Transport: o.Transport, t: t, sent: map[netproto.NodeID][][]byte{}}
			o.Transport = rec
		}
	})
	const commits = 8
	for i := 0; i < commits; i++ {
		data := compressible(512)
		data[0] = byte(i)
		commitWrite(t, nodes[0], 1, 0, data)
		// Each record drains before the next commit, so every frame
		// carries exactly one record.
		waitFor(t, func() bool { return windowsDrained(nodes[0]) })
	}
	for _, n := range nodes[1:] {
		if got := readUnder(t, n, 1, 1, 511); !bytes.Equal(got, compressible(512)[1:]) {
			t.Fatalf("node %d diverged", n.Self())
		}
	}
	st := nodes[0].Stats()
	if got := st.Counter(metrics.CtrBatchRecords); got != 2*commits {
		t.Fatalf("%d records shipped, want %d", got, 2*commits)
	}
	if got := st.Counter(metrics.CtrFramesDeflated); got != commits {
		t.Fatalf("frames_deflated = %d, want one per commit (%d)", got, commits)
	}
	if got := st.Counter(metrics.CtrCompressedFrames); got != 2*commits {
		t.Fatalf("compressed_frames = %d, want one per peer per commit (%d)", got, 2*commits)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	a, b := rec.sent[2], rec.sent[3]
	if len(a) != commits || len(b) != commits {
		t.Fatalf("compressed frames per peer = %d, %d; want %d each", len(a), len(b), commits)
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("commit %d: peers received different compressed frames", i)
		}
	}
}
