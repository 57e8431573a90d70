package coherency

import (
	"sync"
	"testing"
	"time"

	"lbc/internal/metrics"
	"lbc/internal/netproto"
)

// countingTransport counts the frames a node sends, by message code. It
// embeds the interface, so every frame goes through Send.
type countingTransport struct {
	netproto.Transport
	mu   sync.Mutex
	sent map[uint8]int
}

func newCountingTransport(inner netproto.Transport) *countingTransport {
	return &countingTransport{Transport: inner, sent: map[uint8]int{}}
}

func (c *countingTransport) Send(to netproto.NodeID, typ uint8, payload []byte) error {
	c.mu.Lock()
	c.sent[typ]++
	c.mu.Unlock()
	return c.Transport.Send(to, typ, payload)
}

func (c *countingTransport) reset() {
	c.mu.Lock()
	c.sent = map[uint8]int{}
	c.mu.Unlock()
}

func (c *countingTransport) counts() map[uint8]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[uint8]int, len(c.sent))
	for typ, k := range c.sent {
		out[typ] = k
	}
	return out
}

// TestCheckpointEagerFrameCount: on an idle eager cluster no node reads
// the server logs, so a checkpoint is a Begin round and a Trim round —
// one request and one reply per peer each, and not one other frame.
func TestCheckpointEagerFrameCount(t *testing.T) {
	const k = 3
	trs := make([]*countingTransport, k)
	nodes := testCluster(t, k, 4096, func(i int, o *Options) {
		trs[i] = newCountingTransport(o.Transport)
		o.Transport = trs[i]
	})
	for _, tr := range trs {
		tr.reset()
	}
	// No lock ids: the whole image is swept under the quiesce, so the
	// checkpoint takes no lock and sends no lock traffic.
	if err := nodes[0].CoordinatedCheckpoint(nil, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	want := []map[uint8]int{
		{MsgCheckpoint: 2 * (k - 1)},
		{MsgCheckpointReply: 2},
		{MsgCheckpointReply: 2},
	}
	total := 0
	for i, tr := range trs {
		got := tr.counts()
		for typ, n := range got {
			total += n
			if want[i][typ] != n {
				t.Errorf("node %d sent %d frames of type %#x, want %d", i+1, n, typ, want[i][typ])
			}
		}
		for typ, n := range want[i] {
			if got[typ] != n {
				t.Errorf("node %d sent %d frames of type %#x, want %d", i+1, got[typ], typ, n)
			}
		}
	}
	if total != 4*(k-1) {
		t.Fatalf("one eager checkpoint sent %d frames, want %d", total, 4*(k-1))
	}
}

// TestCheckpointMalformedFrames: every malformed checkpoint frame is one
// decode_errors tick, attributed to its sender, and draws no reply.
func TestCheckpointMalformedFrames(t *testing.T) {
	var tr *countingTransport
	nodes := testCluster(t, 2, 1024, func(i int, o *Options) {
		if i == 0 {
			tr = newCountingTransport(o.Transport)
			o.Transport = tr
		}
	})
	n := nodes[0]
	const from = 2
	for _, tc := range []struct {
		name    string
		reply   bool
		payload []byte
	}{
		{"request short", false, ckptRequest(ckptBegin, 1)[:8]},
		{"request long", false, append(ckptRequest(ckptTrim, 1), 0)},
		{"request empty", false, nil},
		{"request phase zero", false, ckptRequest(0, 1)},
		{"request unknown phase", false, ckptRequest(ckptTrim+1, 1)},
		{"reply short", true, ckptReplyFrame(ckptBegin, ckptOK, 1)[:9]},
		{"reply long", true, append(ckptReplyFrame(ckptBegin, ckptOK, 1), 0)},
		{"reply unknown phase", true, ckptReplyFrame(0xFF, ckptOK, 1)},
		{"reply unknown status", true, ckptReplyFrame(ckptBegin, ckptReads+1, 1)},
		{"reply sync busy", true, ckptReplyFrame(ckptSync, ckptBusy, 1)},
		{"reply trim busy", true, ckptReplyFrame(ckptTrim, ckptBusy, 1)},
		{"reply sync reads", true, ckptReplyFrame(ckptSync, ckptReads, 1)},
		{"reply trim reads", true, ckptReplyFrame(ckptTrim, ckptReads, 1)},
	} {
		before := n.Stats().Counter(metrics.CtrDecodeErrors)
		beforeFrom := n.Stats().Counter(metrics.DecodeErrorsFrom(from))
		tr.reset()
		if tc.reply {
			n.onCheckpointReply(from, tc.payload)
		} else {
			n.onCheckpoint(from, tc.payload)
		}
		if got := n.Stats().Counter(metrics.CtrDecodeErrors) - before; got != 1 {
			t.Errorf("%s: %d decode_errors ticks, want 1", tc.name, got)
		}
		if got := n.Stats().Counter(metrics.DecodeErrorsFrom(from)) - beforeFrom; got != 1 {
			t.Errorf("%s: %d ticks attributed to node %d, want 1", tc.name, got, from)
		}
		if sent := tr.counts(); len(sent) != 0 {
			t.Errorf("%s: answered with %v", tc.name, sent)
		}
	}
	// None of it disturbed the node: it still coordinates a checkpoint.
	if err := n.CoordinatedCheckpoint(nil, 10*time.Second); err != nil {
		t.Fatal(err)
	}
}

// FuzzCheckpointFrame feeds arbitrary bytes to the live checkpoint
// handlers of a 2-node cluster — the request handler at node 2 or the
// reply handler at node 1 — and requires no panic, at most one
// decode_errors tick, and a checkpoint that still succeeds afterwards.
func FuzzCheckpointFrame(f *testing.F) {
	for _, phase := range []uint8{ckptBegin, ckptSync, ckptTrim} {
		req := ckptRequest(phase, 1)
		f.Add(false, req)
		f.Add(false, req[:len(req)-1])
		f.Add(false, req[:1])
		for _, status := range []uint8{ckptOK, ckptBusy, ckptReads} {
			rep := ckptReplyFrame(phase, status, 1)
			f.Add(true, rep)
			f.Add(true, rep[:len(rep)-1])
			f.Add(true, rep[:2])
		}
	}
	f.Add(false, []byte{})
	f.Add(true, []byte{})
	nodes := testCluster(f, 2, 1024, nil)
	decodeErrors := func() int64 {
		return nodes[0].Stats().Counter(metrics.CtrDecodeErrors) +
			nodes[1].Stats().Counter(metrics.CtrDecodeErrors)
	}
	f.Fuzz(func(t *testing.T, reply bool, b []byte) {
		before := decodeErrors()
		if reply {
			nodes[0].onCheckpointReply(2, b)
		} else {
			nodes[1].onCheckpoint(1, b)
		}
		if err := nodes[0].CoordinatedCheckpoint(nil, 10*time.Second); err != nil {
			t.Fatalf("checkpoint after the frame: %v", err)
		}
		if got := decodeErrors() - before; got > 1 {
			t.Fatalf("%d decode_errors ticks for one frame", got)
		}
	})
}
