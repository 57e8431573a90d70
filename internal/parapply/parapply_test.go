package parapply

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"lbc/internal/wal"
)

// harness wraps an Engine with a lockmgr-like applied map and an
// install log for ordering assertions.
type harness struct {
	mu      sync.Mutex
	applied map[uint32]uint64
	order   []ident // install order
	workers map[int]bool
	fail    func(rec *wal.TxRecord) error

	dropMu sync.Mutex
	drops  []ident

	eng *Engine
}

func newHarness(workers int) *harness {
	h := &harness{applied: map[uint32]uint64{}, workers: map[int]bool{}}
	h.eng = New(Config{
		Workers: workers,
		Applied: func(lockID uint32) uint64 {
			// Called with the engine mutex held; h.mu is a leaf.
			h.mu.Lock()
			defer h.mu.Unlock()
			return h.applied[lockID]
		},
		Install: func(worker int, rec *wal.TxRecord) error {
			if h.fail != nil {
				if err := h.fail(rec); err != nil {
					return err
				}
			}
			h.mu.Lock()
			h.order = append(h.order, ident{rec.Node, rec.TxSeq})
			h.workers[worker] = true
			for _, l := range rec.Locks {
				if l.Wrote && h.applied[l.LockID] < l.Seq {
					h.applied[l.LockID] = l.Seq
				}
			}
			h.mu.Unlock()
			return nil
		},
		Drop: func(rec *wal.TxRecord) {
			h.dropMu.Lock()
			h.drops = append(h.drops, ident{rec.Node, rec.TxSeq})
			h.dropMu.Unlock()
		},
	})
	return h
}

func lockRec(node uint32, txSeq uint64, lockID uint32, seq uint64) *wal.TxRecord {
	return &wal.TxRecord{
		Node: node, TxSeq: txSeq,
		Locks:  []wal.LockRec{{LockID: lockID, Seq: seq, PrevWriteSeq: seq - 1, Wrote: true}},
		Ranges: []wal.RangeRec{{Region: 1, Off: uint64(lockID) * 100, Data: []byte{byte(seq)}}},
	}
}

func freeRec(node uint32, txSeq uint64) *wal.TxRecord {
	return &wal.TxRecord{
		Node: node, TxSeq: txSeq,
		Ranges: []wal.RangeRec{{Region: 1, Off: 0, Data: []byte{byte(txSeq)}}},
	}
}

func (h *harness) waitSettled(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if h.eng.Settle(); h.eng.QueueDepth() == h.eng.Parked() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("engine did not settle")
		}
		time.Sleep(time.Millisecond)
	}
}

func (h *harness) installOrder() []ident {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]ident(nil), h.order...)
}

func TestChainOrderPreserved(t *testing.T) {
	h := newHarness(4)
	defer h.eng.Close()
	// One chain delivered in reverse: must install in sequence order.
	for seq := uint64(5); seq >= 1; seq-- {
		h.eng.Submit(lockRec(1, seq, 7, seq))
	}
	h.waitSettled(t)
	got := h.installOrder()
	if len(got) != 5 {
		t.Fatalf("installed %d records, want 5 (parked %d)", len(got), h.eng.Parked())
	}
	for i, id := range got {
		if id.seq != uint64(i+1) {
			t.Fatalf("install order %v not sequential", got)
		}
	}
}

func TestDisjointChainsAllInstall(t *testing.T) {
	h := newHarness(4)
	defer h.eng.Close()
	const chains, per = 8, 20
	var recs []*wal.TxRecord
	for c := uint32(1); c <= chains; c++ {
		for seq := uint64(1); seq <= per; seq++ {
			recs = append(recs, lockRec(c, uint64(c)*1000+seq, c, seq))
		}
	}
	rand.New(rand.NewSource(42)).Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
	for _, r := range recs {
		h.eng.Submit(r)
	}
	h.waitSettled(t)
	if got := len(h.installOrder()); got != chains*per {
		t.Fatalf("installed %d, want %d", got, chains*per)
	}
	// Per-chain order must be sequential even though chains interleave.
	perChain := map[uint32]uint64{}
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, id := range h.order {
		chain := uint32(id.seq / 1000)
		seq := id.seq % 1000
		if seq != perChain[chain]+1 {
			t.Fatalf("chain %d: seq %d after %d", chain, seq, perChain[chain])
		}
		perChain[chain] = seq
	}
}

func TestDuplicateIdentityDropped(t *testing.T) {
	h := newHarness(2)
	defer h.eng.Close()
	// Park a record (missing predecessor), then deliver the same
	// identity again: the duplicate must drop without installing.
	h.eng.Submit(lockRec(1, 2, 7, 2))
	waitParked(t, h.eng, 1)
	h.eng.Submit(lockRec(1, 2, 7, 2))
	h.eng.Submit(lockRec(1, 1, 7, 1))
	h.waitSettled(t)
	if got := len(h.installOrder()); got != 2 {
		t.Fatalf("installed %d, want 2", got)
	}
	h.dropMu.Lock()
	defer h.dropMu.Unlock()
	if len(h.drops) != 1 || h.drops[0] != (ident{1, 2}) {
		t.Fatalf("drops = %v, want the duplicate of (1,2)", h.drops)
	}
}

func TestStaleRecordDropped(t *testing.T) {
	h := newHarness(2)
	defer h.eng.Close()
	h.eng.Submit(lockRec(1, 1, 7, 1))
	h.waitSettled(t)
	// Re-deliver after completion: the chain has advanced, so the
	// record is stale.
	h.eng.Submit(lockRec(1, 1, 7, 1))
	h.waitSettled(t)
	if got := len(h.installOrder()); got != 1 {
		t.Fatalf("installed %d, want 1", got)
	}
}

func TestLockFreePerSenderFIFO(t *testing.T) {
	h := newHarness(4)
	defer h.eng.Close()
	// Two senders, interleaved lock-free records: each sender's stream
	// must install in order (they overwrite the same bytes).
	for seq := uint64(1); seq <= 50; seq++ {
		h.eng.Submit(freeRec(1, seq))
		h.eng.Submit(freeRec(2, seq))
	}
	h.waitSettled(t)
	got := h.installOrder()
	if len(got) != 100 {
		t.Fatalf("installed %d, want 100", len(got))
	}
	last := map[uint32]uint64{}
	for _, id := range got {
		if id.seq != last[id.node]+1 {
			t.Fatalf("sender %d: seq %d after %d", id.node, id.seq, last[id.node])
		}
		last[id.node] = id.seq
	}
}

func TestLockFreeDuplicateStale(t *testing.T) {
	h := newHarness(2)
	defer h.eng.Close()
	h.eng.Submit(freeRec(1, 1))
	h.eng.Submit(freeRec(1, 2))
	h.waitSettled(t)
	h.eng.Submit(freeRec(1, 1)) // behind the sender high-water mark
	h.waitSettled(t)
	if got := len(h.installOrder()); got != 2 {
		t.Fatalf("installed %d, want 2", got)
	}
}

// A sender's lock-bearing record may overtake its queued lock-free
// predecessor on another worker; that must not make the lock-free record
// stale.
func TestLockBearingDoesNotStaleQueuedLockFree(t *testing.T) {
	h := newHarness(2)
	defer h.eng.Close()
	entered, release := make(chan struct{}), make(chan struct{})
	h.fail = func(rec *wal.TxRecord) error {
		if len(rec.Locks) == 0 && rec.TxSeq == 1 {
			close(entered)
			<-release
		}
		return nil
	}
	h.eng.Submit(freeRec(1, 1)) // in flight, held
	<-entered
	h.eng.Submit(freeRec(1, 2))       // queued behind it
	h.eng.Submit(lockRec(1, 3, 7, 1)) // installs meanwhile on the other worker
	deadline := time.Now().Add(5 * time.Second)
	for len(h.installOrder()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("lock-bearing record did not install beside the held one")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	h.waitSettled(t)
	if got := h.installOrder(); len(got) != 3 {
		t.Fatalf("installed %v, want all three records", got)
	}
}

func TestWakeLocksReleasesWaiter(t *testing.T) {
	h := newHarness(2)
	defer h.eng.Close()
	// Parked on a predecessor the engine never installs (a local
	// commit advanced the chain instead, as lockmgr.Release does).
	h.eng.Submit(lockRec(1, 2, 7, 2))
	waitParked(t, h.eng, 1)
	h.mu.Lock()
	h.applied[7] = 1
	h.mu.Unlock()
	h.eng.WakeLocks([]uint32{7})
	h.waitSettled(t)
	if got := len(h.installOrder()); got != 1 {
		t.Fatalf("installed %d, want 1", got)
	}
}

func TestWakeAll(t *testing.T) {
	h := newHarness(2)
	defer h.eng.Close()
	h.eng.Submit(lockRec(1, 2, 7, 2))
	h.eng.Submit(lockRec(1, 12, 9, 4))
	waitParked(t, h.eng, 2)
	h.mu.Lock()
	h.applied[7] = 1
	h.applied[9] = 3
	h.mu.Unlock()
	h.eng.WakeAll()
	h.waitSettled(t)
	if got := len(h.installOrder()); got != 2 {
		t.Fatalf("installed %d, want 2", got)
	}
}

func TestMultiLockRecordGatesOnAllChains(t *testing.T) {
	h := newHarness(4)
	defer h.eng.Close()
	span := &wal.TxRecord{
		Node: 1, TxSeq: 100,
		Locks: []wal.LockRec{
			{LockID: 1, Seq: 2, PrevWriteSeq: 1, Wrote: true},
			{LockID: 2, Seq: 2, PrevWriteSeq: 1, Wrote: true},
		},
	}
	h.eng.Submit(span)
	waitParked(t, h.eng, 1)
	h.eng.Submit(lockRec(1, 1, 1, 1))
	time.Sleep(10 * time.Millisecond)
	if h.eng.Parked() != 1 {
		t.Fatalf("record spanning two chains dispatched with one predecessor missing")
	}
	h.eng.Submit(lockRec(2, 1, 2, 1))
	h.waitSettled(t)
	got := h.installOrder()
	if len(got) != 3 || got[2] != (ident{1, 100}) {
		t.Fatalf("install order %v, want the spanning record last", got)
	}
}

func TestInstallErrorDoesNotAdvanceChain(t *testing.T) {
	h := newHarness(2)
	boom := errors.New("boom")
	h.fail = func(rec *wal.TxRecord) error {
		if rec.TxSeq == 1 {
			return boom
		}
		return nil
	}
	defer h.eng.Close()
	h.eng.Submit(lockRec(1, 1, 7, 1))
	h.eng.Submit(lockRec(1, 2, 7, 2))
	h.eng.Settle()
	// Record 2 must stay parked: its predecessor failed to install.
	if p := h.eng.Parked(); p != 1 {
		t.Fatalf("parked = %d, want 1 (successor of a failed install)", p)
	}
}

func TestParallelismAcrossChains(t *testing.T) {
	// Two chains and two workers: a slow install on chain 1 must not
	// prevent chain 2 from installing concurrently.
	block := make(chan struct{})
	entered := make(chan uint32, 2)
	var eng *Engine
	eng = New(Config{
		Workers: 2,
		Applied: func(lockID uint32) uint64 { return 0 },
		Install: func(w int, rec *wal.TxRecord) error {
			entered <- rec.Locks[0].LockID
			if rec.Locks[0].LockID == 1 {
				<-block
			}
			return nil
		},
	})
	defer eng.Close()
	eng.Submit(&wal.TxRecord{Node: 1, TxSeq: 1, Locks: []wal.LockRec{{LockID: 1, Seq: 1, Wrote: true}}})
	eng.Submit(&wal.TxRecord{Node: 2, TxSeq: 1, Locks: []wal.LockRec{{LockID: 2, Seq: 1, Wrote: true}}})
	seen := map[uint32]bool{}
	for i := 0; i < 2; i++ {
		select {
		case id := <-entered:
			seen[id] = true
		case <-time.After(2 * time.Second):
			t.Fatalf("second chain blocked behind the first; entered %v", seen)
		}
	}
	close(block)
}

func TestCloseDiscardsParked(t *testing.T) {
	h := newHarness(2)
	h.eng.Submit(lockRec(1, 5, 7, 5)) // never unblocked
	waitParked(t, h.eng, 1)
	h.eng.Close()
	h.dropMu.Lock()
	n := len(h.drops)
	h.dropMu.Unlock()
	if n != 1 {
		t.Fatalf("Close dropped %d records, want 1", n)
	}
	if h.eng.Submit(freeRec(1, 1)) {
		t.Fatal("Submit accepted a record after Close")
	}
}

func waitParked(t *testing.T, eng *Engine, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for eng.Parked() != want {
		if time.Now().After(deadline) {
			t.Fatalf("parked = %d, want %d", eng.Parked(), want)
		}
		time.Sleep(time.Millisecond)
	}
}
