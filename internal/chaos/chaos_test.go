package chaos

import (
	"errors"
	"fmt"
	"testing"

	"lbc/internal/netproto"
	"lbc/internal/rvm"
	"lbc/internal/wal"
)

// recorder captures what a deliver schedule actually put on the wire.
type recorder struct {
	events []string
}

func (r *recorder) send(to netproto.NodeID, typ uint8, payload []byte) error {
	r.events = append(r.events, fmt.Sprintf("%d/%#x/%s", to, typ, payload))
	return nil
}

// driveSchedule pushes a fixed message sequence through an injector
// and returns the delivered event trace.
func driveSchedule(in *Injector) []string {
	rec := &recorder{}
	for i := 0; i < 200; i++ {
		payload := []byte(fmt.Sprintf("m%03d", i))
		to := netproto.NodeID(2 + i%2)
		_ = in.deliver(rec.send, 1, to, 0x25, payload)
	}
	_ = in.flushHeld(1, rec.send)
	return rec.events
}

func TestScheduleReplaysBitForBit(t *testing.T) {
	a := driveSchedule(New(Config{Seed: 99, DropProb: 0.2, DupProb: 0.15, ReorderProb: 0.15}))
	b := driveSchedule(New(Config{Seed: 99, DropProb: 0.2, DupProb: 0.15, ReorderProb: 0.15}))
	if len(a) != len(b) {
		t.Fatalf("schedule lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedules diverge at %d: %q vs %q", i, a[i], b[i])
		}
	}
	if len(a) == 200 {
		t.Fatal("no faults fired at these probabilities; schedule is not exercising the injector")
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := driveSchedule(New(Config{Seed: 1, DropProb: 0.2, DupProb: 0.15, ReorderProb: 0.15}))
	b := driveSchedule(New(Config{Seed: 2, DropProb: 0.2, DupProb: 0.15, ReorderProb: 0.15}))
	if len(a) == len(b) {
		same := true
		for i := range a {
			if a[i] != b[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("seeds 1 and 2 produced identical schedules")
		}
	}
}

func TestPartitionIsVisibleForAllTypes(t *testing.T) {
	in := New(Config{Seed: 7})
	in.PartitionOneWay(1, 2)
	rec := &recorder{}
	for _, typ := range []uint8{0x10, 0x25, 0x23} {
		err := in.deliver(rec.send, 1, 2, typ, []byte("x"))
		if !errors.Is(err, netproto.ErrPeerUnreachable) {
			t.Fatalf("type %#x across partition: got %v, want ErrPeerUnreachable", typ, err)
		}
	}
	// Reverse direction is open under a one-way cut.
	if err := in.deliver(rec.send, 2, 1, 0x10, []byte("x")); err != nil {
		t.Fatalf("reverse direction failed: %v", err)
	}
	in.Heal()
	if err := in.deliver(rec.send, 1, 2, 0x25, []byte("x")); err != nil {
		t.Fatalf("after heal: %v", err)
	}
	if len(rec.events) != 2 {
		t.Fatalf("delivered %d messages, want 2", len(rec.events))
	}
}

func TestOnlyUpdateTypesDropSilently(t *testing.T) {
	in := New(Config{Seed: 3, DropProb: 1.0})
	rec := &recorder{}
	// Control traffic is never silently dropped, even at DropProb 1.
	for i := 0; i < 20; i++ {
		if err := in.deliver(rec.send, 1, 2, 0x10, []byte("tok")); err != nil {
			t.Fatalf("control send errored: %v", err)
		}
	}
	if len(rec.events) != 20 {
		t.Fatalf("control messages delivered: %d, want 20", len(rec.events))
	}
	// Update traffic all drops.
	for i := 0; i < 20; i++ {
		if err := in.deliver(rec.send, 1, 2, 0x25, []byte("upd")); err != nil {
			t.Fatalf("update send errored: %v", err)
		}
	}
	if len(rec.events) != 20 {
		t.Fatalf("updates leaked through at DropProb 1: %d events", len(rec.events))
	}
	if in.Stats()["drops"] != 20 {
		t.Fatalf("drops counter = %d, want 20", in.Stats()["drops"])
	}
}

func TestReorderSwapsAndFlushDrains(t *testing.T) {
	in := New(Config{Seed: 5, ReorderProb: 1.0})
	rec := &recorder{}
	// First message is held, second overtakes it and releases it.
	_ = in.deliver(rec.send, 1, 2, 0x25, []byte("a"))
	if len(rec.events) != 0 {
		t.Fatalf("first message should be held, got %v", rec.events)
	}
	_ = in.deliver(rec.send, 1, 2, 0x25, []byte("b"))
	if len(rec.events) != 2 || rec.events[0] != "2/0x25/b" || rec.events[1] != "2/0x25/a" {
		t.Fatalf("expected swapped delivery [b a], got %v", rec.events)
	}
	// A lone hold-back drains on flush.
	_ = in.deliver(rec.send, 1, 2, 0x25, []byte("c"))
	if err := in.flushHeld(1, rec.send); err != nil {
		t.Fatal(err)
	}
	if len(rec.events) != 3 || rec.events[2] != "2/0x25/c" {
		t.Fatalf("flush did not drain hold-back: %v", rec.events)
	}
}

func TestFaultyDeviceDeterministicFailures(t *testing.T) {
	run := func() []bool {
		in := New(Config{Seed: 11, StoreFailProb: 0.3})
		dev := WrapDevice(wal.NewMemDevice(), in, "n1")
		var outcome []bool
		for i := 0; i < 50; i++ {
			_, err := dev.Append([]byte("rec"))
			outcome = append(outcome, err == nil)
			if err != nil && !errors.Is(err, ErrInjected) {
				t.Fatalf("unexpected error type: %v", err)
			}
		}
		return outcome
	}
	a, b := run(), run()
	fails := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fault schedule diverged at op %d", i)
		}
		if !a[i] {
			fails++
		}
	}
	if fails == 0 {
		t.Fatal("no storage faults fired at StoreFailProb 0.3")
	}
}

// countingStore is an rvm.DataStore that counts which write path a
// wrapper took.
type countingStore struct {
	*rvm.MemStore
	pageWrites, imageWrites int
}

func (c *countingStore) StorePages(id uint32, pages []rvm.PageWrite) error {
	c.pageWrites++
	return c.MemStore.StorePages(id, pages)
}

func (c *countingStore) StoreRegion(id uint32, data []byte) error {
	c.imageWrites++
	return c.MemStore.StoreRegion(id, data)
}

// TestFaultyStoreKeepsThePageWritePath: wrapping a store for fault
// injection must not change how a checkpoint sweeps it. Page writes
// reach the inner store as page writes (never as a rewrite of the
// image), and an injected fault fires before the inner write.
func TestFaultyStoreKeepsThePageWritePath(t *testing.T) {
	inner := &countingStore{MemStore: rvm.NewMemStore()}
	fs := WrapDataStore(inner, New(Config{Seed: 5}), "n1")
	if err := fs.StorePages(1, []rvm.PageWrite{{Off: 8, Data: []byte("page")}}); err != nil {
		t.Fatal(err)
	}
	if err := fs.StorePages(1, []rvm.PageWrite{{Off: 0, Data: []byte("vec")}, {Off: 16, Data: []byte("tor")}}); err != nil {
		t.Fatal(err)
	}
	if inner.pageWrites != 2 || inner.imageWrites != 0 {
		t.Fatalf("inner saw %d page writes and %d image rewrites, want 2 and 0", inner.pageWrites, inner.imageWrites)
	}
	if img, _ := inner.LoadRegion(1); string(img) != "vec\x00\x00\x00\x00\x00page\x00\x00\x00\x00tor" {
		t.Fatalf("image = %q", img)
	}

	failing := WrapDataStore(inner, New(Config{Seed: 5, StoreFailProb: 1}), "n1")
	if err := failing.StorePages(1, []rvm.PageWrite{{Off: 0, Data: []byte("lost")}}); !errors.Is(err, ErrInjected) {
		t.Fatalf("StorePages at StoreFailProb 1: %v", err)
	}
	if inner.pageWrites != 2 {
		t.Fatal("an injected fault reached the inner store")
	}
}

func TestCheckLockChains(t *testing.T) {
	mk := func(node uint32, txSeq uint64, lock uint32, seq, prev uint64) *wal.TxRecord {
		return &wal.TxRecord{
			Node: node, TxSeq: txSeq,
			Locks:  []wal.LockRec{{LockID: lock, Seq: seq, PrevWriteSeq: prev, Wrote: true}},
			Ranges: []wal.RangeRec{{Region: 1, Off: 0, Data: []byte{1}}},
		}
	}
	good := []*wal.TxRecord{
		mk(1, 1, 9, 1, 0),
		mk(2, 1, 9, 2, 1),
		mk(1, 2, 9, 3, 2),
	}
	if err := CheckLockChains(good); err != nil {
		t.Fatalf("valid chain rejected: %v", err)
	}
	// Duplicate identity (a failover retry) must be tolerated.
	if err := CheckLockChains(append(good, mk(2, 1, 9, 2, 1))); err != nil {
		t.Fatalf("at-least-once duplicate rejected: %v", err)
	}
	// A gap — seq 3 claims its predecessor write was 1, but seq 2 wrote.
	bad := []*wal.TxRecord{
		mk(1, 1, 9, 1, 0),
		mk(2, 1, 9, 2, 1),
		mk(1, 2, 9, 3, 1),
	}
	if err := CheckLockChains(bad); err == nil {
		t.Fatal("gapped chain accepted")
	}
	// Two holders at the same sequence number.
	dup := []*wal.TxRecord{
		mk(1, 1, 9, 1, 0),
		mk(2, 1, 9, 1, 0),
	}
	if err := CheckLockChains(dup); err == nil {
		t.Fatal("duplicate sequence accepted")
	}
}

func TestCheckConverged(t *testing.T) {
	ok := map[uint32]map[uint32][]byte{
		1: {7: []byte{1, 2, 3}},
		2: {7: []byte{1, 2, 3}},
	}
	if err := CheckConverged(ok); err != nil {
		t.Fatalf("converged images rejected: %v", err)
	}
	bad := map[uint32]map[uint32][]byte{
		1: {7: []byte{1, 2, 3}},
		2: {7: []byte{1, 2, 4}},
	}
	if err := CheckConverged(bad); err == nil {
		t.Fatal("diverged images accepted")
	}
}
