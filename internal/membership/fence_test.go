package membership

import (
	"sync"
	"testing"
	"time"

	"lbc/internal/chaos"
	"lbc/internal/metrics"
	"lbc/internal/netproto"
)

// The epoch-fencing acceptance test: a frame sent before an eviction,
// held back in flight by a chaos reorder fault, resurfaces after the
// receiver's epoch has moved on — and must be dropped at delivery, not
// applied. This is the §3.4 hazard window the fence closes: the update
// was broadcast by (or ordered against) a membership view that no
// longer exists.

const testUpdateType uint8 = 0x25 // coherency.MsgUpdateBatch

type frameLog struct {
	mu     sync.Mutex
	frames [][]byte
}

func (l *frameLog) handler(from netproto.NodeID, payload []byte) {
	l.mu.Lock()
	l.frames = append(l.frames, append([]byte(nil), payload...))
	l.mu.Unlock()
}

func (l *frameLog) count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.frames)
}

func TestFenceDropsDelayedPreEvictionFrames(t *testing.T) {
	hub := netproto.NewHub()
	// ReorderProb 1 on the update type: every tagged frame is held in
	// the injector until a flush — a deterministic "delayed in flight".
	inj := chaos.New(chaos.Config{
		Seed:        7,
		ReorderProb: 1.0,
		DropTypes:   []uint8{testUpdateType},
	})
	clk := NewManualClock()
	ids := []netproto.NodeID{1, 2}
	tr1 := chaos.WrapTransport(hub.Endpoint(1), inj)
	tr2 := chaos.WrapTransport(hub.Endpoint(2), inj)
	st1, st2 := metrics.NewStats(), metrics.NewStats()
	m1 := New(Config{Transport: tr1, Nodes: ids, Clock: clk, Stats: st1})
	m2 := New(Config{Transport: tr2, Nodes: ids, Clock: clk, Stats: st2})
	defer m1.Close()
	defer m2.Close()
	f1 := NewFence(tr1, m1, st1, []uint8{testUpdateType})
	f2 := NewFence(tr2, m2, st2, []uint8{testUpdateType})

	var rcv frameLog
	f2.Handle(testUpdateType, rcv.handler)

	// Epoch-0 frame: tagged 0 at send time, held by the reorder fault.
	if err := f1.Send(2, testUpdateType, []byte("pre-eviction")); err != nil {
		t.Fatalf("send: %v", err)
	}
	time.Sleep(10 * time.Millisecond)
	if rcv.count() != 0 {
		t.Fatal("frame delivered despite reorder hold-back")
	}

	// An eviction elsewhere bumps the cluster epoch while the frame is
	// in flight.
	m2.SetEpoch(1)

	// The held frame resurfaces: it must be fenced, not applied.
	if err := tr1.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	awaitCounter(t, st2, metrics.CtrStaleEpochFrames, 1)
	if rcv.count() != 0 {
		t.Fatal("stale-epoch frame reached the handler")
	}

	// A frame tagged with the current epoch passes.
	m1.SetEpoch(1)
	if err := f1.Send(2, testUpdateType, []byte("current")); err != nil {
		t.Fatalf("send: %v", err)
	}
	if err := tr1.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	await(t, "current-epoch delivery", func() bool { return rcv.count() == 1 })
	rcv.mu.Lock()
	got := string(rcv.frames[0])
	rcv.mu.Unlock()
	if got != "current" {
		t.Fatalf("delivered payload = %q (epoch tag not stripped?)", got)
	}
	if n := st2.Counter(metrics.CtrStaleEpochFrames); n != 1 {
		t.Fatalf("stale_epoch_frames = %d, want 1", n)
	}
}

func TestFenceQuarantinesEvictedSender(t *testing.T) {
	hub := netproto.NewHub()
	clk := NewManualClock()
	ids := []netproto.NodeID{1, 2}
	tr1, tr2 := hub.Endpoint(1), hub.Endpoint(2)
	st1, st2 := metrics.NewStats(), metrics.NewStats()
	m1 := New(Config{Transport: tr1, Nodes: ids, Clock: clk, Stats: st1})
	m2 := New(Config{Transport: tr2, Nodes: ids, Clock: clk, Stats: st2})
	defer m1.Close()
	defer m2.Close()
	f1 := NewFence(tr1, m1, st1, nil)
	f2 := NewFence(tr2, m2, st2, nil)

	var rcv frameLog
	const lockType uint8 = 0x12 // un-fenced type: no epoch tag
	f2.Handle(lockType, rcv.handler)

	if err := f1.Send(2, lockType, []byte("alive")); err != nil {
		t.Fatalf("send: %v", err)
	}
	await(t, "pre-eviction delivery", func() bool { return rcv.count() == 1 })

	// Node 2 evicts node 1; the quarantine applies to every frame type,
	// fenced or not — a zombie must not keep driving the lock protocol.
	m2.mu.Lock()
	m2.peers[1].evicted = true
	m2.mu.Unlock()

	if err := f1.Send(2, lockType, []byte("zombie")); err != nil {
		t.Fatalf("send: %v", err)
	}
	awaitCounter(t, st2, metrics.CtrEvictedSenderFrames, 1)
	if rcv.count() != 1 {
		t.Fatal("evicted sender's frame reached the handler")
	}

	// The reverse direction fails fast at the sender.
	if err := f2.Send(1, lockType, []byte("to the dead")); err == nil {
		t.Fatal("send to evicted peer succeeded")
	} else if err != netproto.ErrPeerEvicted {
		t.Fatalf("send to evicted peer: err = %v, want ErrPeerEvicted", err)
	}
}

func awaitCounter(t *testing.T, st *metrics.Stats, name string, want int64) {
	t.Helper()
	await(t, name, func() bool { return st.Counter(name) >= want })
}

// TestFenceSendVTagsAndStrips drives the vector-send path through the
// fence: the epoch tag must ride as an extra leading part (keeping the
// send scatter-gather end to end) and be stripped before the handler,
// with the parts arriving concatenated in order.
func TestFenceSendVTagsAndStrips(t *testing.T) {
	hub := netproto.NewHub()
	clk := NewManualClock()
	ids := []netproto.NodeID{1, 2}
	tr1, tr2 := hub.Endpoint(1), hub.Endpoint(2)
	st1, st2 := metrics.NewStats(), metrics.NewStats()
	m1 := New(Config{Transport: tr1, Nodes: ids, Clock: clk, Stats: st1})
	m2 := New(Config{Transport: tr2, Nodes: ids, Clock: clk, Stats: st2})
	defer m1.Close()
	defer m2.Close()
	f1 := NewFence(tr1, m1, st1, []uint8{testUpdateType})
	f2 := NewFence(tr2, m2, st2, []uint8{testUpdateType})

	var rcv frameLog
	f2.Handle(testUpdateType, rcv.handler)

	m1.SetEpoch(3)
	m2.SetEpoch(3)
	if err := f1.SendV(2, testUpdateType, [][]byte{[]byte("vec-"), []byte("parts")}); err != nil {
		t.Fatalf("sendv: %v", err)
	}
	await(t, "fenced vector delivery", func() bool { return rcv.count() == 1 })
	rcv.mu.Lock()
	got := string(rcv.frames[0])
	rcv.mu.Unlock()
	if got != "vec-parts" {
		t.Fatalf("delivered payload = %q (epoch tag not stripped, or parts scrambled)", got)
	}

	// A stale-epoch vector send is fenced exactly like a flat one.
	m2.SetEpoch(4)
	if err := f1.SendV(2, testUpdateType, [][]byte{[]byte("stale")}); err != nil {
		t.Fatalf("sendv: %v", err)
	}
	awaitCounter(t, st2, metrics.CtrStaleEpochFrames, 1)
	if rcv.count() != 1 {
		t.Fatal("stale-epoch vector frame reached the handler")
	}
}
