package lockmgr

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lbc/internal/netproto"
)

// cluster builds n in-process lock manager endpoints on a shared hub.
func cluster(t *testing.T, n int) []*Manager {
	t.Helper()
	hub := netproto.NewHub()
	ids := make([]netproto.NodeID, n)
	for i := range ids {
		ids[i] = netproto.NodeID(i + 1)
	}
	ms := make([]*Manager, n)
	for i := range ids {
		ep := hub.Endpoint(ids[i])
		ms[i] = New(ep, ids, nil)
		m := ms[i]
		t.Cleanup(func() { m.Close() })
	}
	return ms
}

// awaitLockState blocks until pred holds for the lock's state on m,
// waking on the manager's own cond broadcasts (every protocol step
// broadcasts, so no polling is involved beyond a safety-net timer).
func awaitLockState(t *testing.T, m *Manager, lockID uint32, pred func(st *lockState) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.state(lockID)
	for !pred(st) {
		if time.Now().After(deadline) {
			t.Fatal("lock state condition not reached")
		}
		tm := time.AfterFunc(10*time.Millisecond, m.cond.Broadcast)
		m.cond.Wait()
		tm.Stop()
	}
}

// lockHomedAt returns a small lock id whose ring birth home is home
// on the roster {1..n} (the cluster helper's ids).
func lockHomedAt(t *testing.T, n int, home netproto.NodeID) uint32 {
	t.Helper()
	ids := make([]netproto.NodeID, n)
	for i := range ids {
		ids[i] = netproto.NodeID(i + 1)
	}
	for l := uint32(1); l < 4096; l++ {
		if HomeOf(ids, l) == home {
			return l
		}
	}
	t.Fatalf("no lock homed at node %d among 4096 ids", home)
	return 0
}

// acquire with a test timeout so protocol bugs fail fast.
func mustAcquire(t *testing.T, m *Manager, lockID uint32) Grant {
	t.Helper()
	type res struct {
		g   Grant
		err error
	}
	ch := make(chan res, 1)
	go func() {
		g, err := m.Acquire(lockID)
		ch <- res{g, err}
	}()
	select {
	case r := <-ch:
		if r.err != nil {
			t.Fatalf("acquire: %v", r.err)
		}
		return r.g
	case <-time.After(5 * time.Second):
		t.Fatalf("acquire of lock %d timed out", lockID)
		return Grant{}
	}
}

func TestLocalAcquireNoMessages(t *testing.T) {
	ms := cluster(t, 2)
	lock := lockHomedAt(t, 2, 1) // ring birth home = node 1
	mgr := ms[0]
	if mgr.ManagerOf(lock) != 1 {
		t.Fatalf("manager of lock %d = %d", lock, mgr.ManagerOf(lock))
	}
	g := mustAcquire(t, mgr, lock)
	if g.Seq != 1 || g.PrevWriteSeq != 0 {
		t.Fatalf("grant = %+v", g)
	}
	if !mgr.Holding(lock) {
		t.Fatal("not holding after acquire")
	}
	mgr.Release(lock, true)
	if mgr.Holding(lock) {
		t.Fatal("still holding after release")
	}
	// Sequence numbers increment per acquire; lastWrite followed.
	g2 := mustAcquire(t, mgr, lock)
	if g2.Seq != 2 || g2.PrevWriteSeq != 1 {
		t.Fatalf("second grant = %+v", g2)
	}
}

func TestRemoteAcquire(t *testing.T) {
	ms := cluster(t, 2)
	lock := lockHomedAt(t, 2, 1) // homed at node 1; node 2 acquires remotely
	g := mustAcquire(t, ms[1], lock)
	if g.Seq != 1 {
		t.Fatalf("grant = %+v", g)
	}
	if !ms[1].HasToken(lock) || ms[0].HasToken(lock) {
		t.Fatal("token did not move to node 2")
	}
	ms[1].Release(lock, false)
	// Node 2 now owns the token: local re-acquire.
	g2 := mustAcquire(t, ms[1], lock)
	if g2.Seq != 2 {
		t.Fatalf("re-grant = %+v", g2)
	}
}

func TestTokenPassingChain(t *testing.T) {
	ms := cluster(t, 3)
	const lock = 3 // managed by nodes[0] = node 1
	var order []int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g, err := ms[i].Acquire(lock)
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			_ = g
			time.Sleep(time.Millisecond)
			ms[i].Release(lock, false)
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("token chain deadlocked")
	}
	if len(order) != 3 {
		t.Fatalf("order = %v", order)
	}
}

func TestMutualExclusion(t *testing.T) {
	ms := cluster(t, 4)
	const lock = 5
	var inCrit atomic.Int32
	var maxSeen atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		for rep := 0; rep < 5; rep++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if _, err := ms[i].Acquire(lock); err != nil {
					t.Error(err)
					return
				}
				n := inCrit.Add(1)
				if n > maxSeen.Load() {
					maxSeen.Store(n)
				}
				time.Sleep(100 * time.Microsecond)
				inCrit.Add(-1)
				ms[i].Release(lock, false)
			}(i)
		}
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("deadlock under contention")
	}
	if maxSeen.Load() != 1 {
		t.Fatalf("mutual exclusion violated: %d concurrent holders", maxSeen.Load())
	}
}

func TestSequenceNumbersGloballyIncrease(t *testing.T) {
	ms := cluster(t, 3)
	const lock = 7
	var seqs []uint64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		for rep := 0; rep < 10; rep++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				g, err := ms[i].Acquire(lock)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				seqs = append(seqs, g.Seq)
				mu.Unlock()
				ms[i].Release(lock, false)
			}(i)
		}
	}
	wg.Wait()
	if len(seqs) != 30 {
		t.Fatalf("%d acquires", len(seqs))
	}
	// Acquire order == append order under the lock, so seqs must be
	// exactly 1..30.
	for i, s := range seqs {
		if s != uint64(i+1) {
			t.Fatalf("seq[%d] = %d", i, s)
		}
	}
}

func TestInterlockBlocksUntilApplied(t *testing.T) {
	ms := cluster(t, 2)
	const lock = 2 // managed by node 1

	// Node 1 writes under the lock (seq 1) and releases.
	g := mustAcquire(t, ms[0], lock)
	ms[0].Release(lock, true)
	if g.Seq != 1 {
		t.Fatalf("grant = %+v", g)
	}

	// Node 2 requests the lock. The token says lastWrite=1, but node 2
	// has not applied update 1 yet: acquire must block.
	acquired := make(chan Grant, 1)
	go func() {
		g, err := ms[1].Acquire(lock)
		if err == nil {
			acquired <- g
		}
	}()
	select {
	case <-acquired:
		t.Fatal("acquire succeeded before update applied (interlock broken)")
	case <-time.After(50 * time.Millisecond):
	}

	// The receiver thread applies update 1; acquire must now proceed.
	ms[1].MarkApplied(lock, 1)
	select {
	case g := <-acquired:
		if g.Seq != 2 || g.PrevWriteSeq != 1 {
			t.Fatalf("grant after apply = %+v", g)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("acquire still blocked after MarkApplied")
	}
}

func TestWaitApplied(t *testing.T) {
	ms := cluster(t, 2)
	done := make(chan error, 1)
	go func() { done <- ms[1].WaitApplied(9, 3) }()
	select {
	case <-done:
		t.Fatal("WaitApplied returned early")
	case <-time.After(20 * time.Millisecond):
	}
	ms[1].MarkApplied(9, 2)
	select {
	case <-done:
		t.Fatal("WaitApplied returned at seq 2 < 3")
	case <-time.After(20 * time.Millisecond):
	}
	ms[1].MarkApplied(9, 3)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitApplied stuck")
	}
	if ms[1].Applied(9) != 3 {
		t.Fatalf("applied = %d", ms[1].Applied(9))
	}
}

func TestReadOnlyHoldersDoNotAdvanceLastWrite(t *testing.T) {
	ms := cluster(t, 2)
	const lock = 2
	g1 := mustAcquire(t, ms[0], lock)
	ms[0].Release(lock, true) // write at seq 1
	_ = g1

	ms[0].MarkApplied(lock, 1)
	g2 := mustAcquire(t, ms[0], lock)
	ms[0].Release(lock, false) // read-only at seq 2
	if g2.Seq != 2 || g2.PrevWriteSeq != 1 {
		t.Fatalf("g2 = %+v", g2)
	}

	// Remote acquire: token's lastWrite must still be 1 (not 2), so
	// applying update 1 suffices.
	ms[1].MarkApplied(lock, 1)
	g3 := mustAcquire(t, ms[1], lock)
	if g3.Seq != 3 || g3.PrevWriteSeq != 1 {
		t.Fatalf("g3 = %+v", g3)
	}
}

func TestCloseUnblocksWaiters(t *testing.T) {
	ms := cluster(t, 2)
	const lock = 2
	mustAcquire(t, ms[0], lock) // hold it and never release

	errs := make(chan error, 1)
	go func() {
		_, err := ms[1].Acquire(lock)
		errs <- err
	}()
	// Deterministic: the acquirer marks the lock requested before
	// parking, so this observes it genuinely waiting.
	awaitLockState(t, ms[1], lock, func(st *lockState) bool { return st.requested })
	ms[1].Close()
	select {
	case err := <-errs:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("err = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter not unblocked by Close")
	}
}

func TestReleaseWithoutHoldIsNoop(t *testing.T) {
	ms := cluster(t, 2)
	ms[0].Release(2, true) // must not panic or corrupt state
	g := mustAcquire(t, ms[0], 2)
	if g.Seq != 1 {
		t.Fatalf("grant = %+v", g)
	}
}

func TestManyLocksSpreadAcrossManagers(t *testing.T) {
	ms := cluster(t, 3)
	seen := map[netproto.NodeID]bool{}
	for l := uint32(0); l < 32; l++ {
		seen[ms[0].ManagerOf(l)] = true
	}
	if len(seen) != 3 {
		t.Fatalf("managers used: %v", seen)
	}
	// Acquire a batch of locks from every node, sequentially.
	for _, m := range ms {
		for l := uint32(0); l < 9; l++ {
			mustAcquire(t, m, l)
			m.Release(l, false)
		}
	}
}

func TestOverTCP(t *testing.T) {
	a, err := netproto.NewTCPMesh(1, "127.0.0.1:0", map[netproto.NodeID]string{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := netproto.NewTCPMesh(2, "127.0.0.1:0", map[netproto.NodeID]string{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	a.SetPeer(2, b.Addr())
	b.SetPeer(1, a.Addr())
	ids := []netproto.NodeID{1, 2}
	ma := New(a, ids, nil)
	mb := New(b, ids, nil)
	t.Cleanup(func() { ma.Close(); mb.Close() })

	const lock = 2 // managed by node 1
	g := mustAcquire(t, mb, lock)
	if g.Seq != 1 {
		t.Fatalf("grant = %+v", g)
	}
	mb.Release(lock, true)
	mb.MarkApplied(lock, 1)
	ma.MarkApplied(lock, 1)
	g2 := mustAcquire(t, ma, lock)
	if g2.Seq != 2 || g2.PrevWriteSeq != 1 {
		t.Fatalf("grant 2 = %+v", g2)
	}
}

func TestAcquireNoInterlock(t *testing.T) {
	ms := cluster(t, 2)
	const lock = 2
	// Node 1 writes (chain advances to 1) and releases.
	mustAcquire(t, ms[0], lock)
	ms[0].Release(lock, true)

	// Node 2 has applied nothing: the normal acquire would block, but
	// AcquireNoInterlock returns as soon as the token arrives.
	done := make(chan Grant, 1)
	go func() {
		g, err := ms[1].AcquireNoInterlock(lock)
		if err == nil {
			done <- g
		}
	}()
	select {
	case g := <-done:
		if g.Seq != 2 || g.PrevWriteSeq != 1 {
			t.Fatalf("grant = %+v", g)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("AcquireNoInterlock blocked on the interlock")
	}
	// The lazy path then applies and waits explicitly.
	ms[1].MarkApplied(lock, 1)
	if err := ms[1].WaitApplied(lock, 1); err != nil {
		t.Fatal(err)
	}
	ms[1].Release(lock, false)
}

func TestManagerReacquiresAfterPassing(t *testing.T) {
	ms := cluster(t, 2)
	const lock = 2 // managed by node 1
	// Node 2 takes the token away.
	mustAcquire(t, ms[1], lock)
	ms[1].Release(lock, false)
	if ms[0].HasToken(lock) {
		t.Fatal("manager still has token")
	}
	// The manager requests its own lock back through the queue.
	g := mustAcquire(t, ms[0], lock)
	if g.Seq != 2 {
		t.Fatalf("grant = %+v", g)
	}
	ms[0].Release(lock, false)
}

func TestHolderReacquiresOwnToken(t *testing.T) {
	ms := cluster(t, 2)
	lock := lockHomedAt(t, 2, 2) // ring birth home = node 2
	if ms[0].ManagerOf(lock) != 2 {
		t.Fatalf("manager = %d", ms[0].ManagerOf(lock))
	}
	// Node 1 acquires remotely, releases, and re-acquires: the second
	// acquire is purely local (token stays until requested).
	mustAcquire(t, ms[0], lock)
	ms[0].Release(lock, false)
	remoteBefore := ms[0].Stats()
	_ = remoteBefore
	g := mustAcquire(t, ms[0], lock)
	if g.Seq != 2 {
		t.Fatalf("grant = %+v", g)
	}
	ms[0].Release(lock, false)
}

func TestLockWaitCounterAccrues(t *testing.T) {
	ms := cluster(t, 2)
	mustAcquire(t, ms[0], 2)
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := ms[1].Acquire(2); err == nil {
			ms[1].Release(2, false)
		}
	}()
	// Deterministic wait for the successor to be queued at the holder —
	// from here on the acquirer is provably blocked — then hold the lock
	// a further 20ms as the interval the counter must account for.
	awaitLockState(t, ms[0], 2, func(st *lockState) bool { return st.hasPend })
	time.Sleep(20 * time.Millisecond)
	ms[0].Release(2, false)
	<-done
	if ms[1].Stats().Counter("lock_wait_ns") < int64(10*time.Millisecond) {
		t.Fatalf("lock wait = %dns", ms[1].Stats().Counter("lock_wait_ns"))
	}
}

// TestAwaitAppliedTimeoutNeverHangs: the timeout must fire even when it
// expires in the instant between arming the timer and parking on the
// condition variable. The timer's wake-up used to broadcast without the
// manager's lock, so one landing in that gap was lost and the waiter
// slept until some unrelated MarkApplied — forever on a quiet lock (seen
// as a pull-on-stall acquire wedged in the chaos soak).
func TestAwaitAppliedTimeoutNeverHangs(t *testing.T) {
	m := cluster(t, 1)[0]
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 5000; i++ {
			if m.AwaitApplied(1, 1, time.Duration(i%5)*time.Microsecond) {
				t.Error("AwaitApplied reported an update nobody applied")
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("AwaitApplied slept through its timeout")
	}
}
