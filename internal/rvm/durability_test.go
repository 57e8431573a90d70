package rvm

import (
	"bytes"
	"testing"

	"lbc/internal/wal"
)

// TestFlushSemanticsAcrossCrash pins the commit-mode contract: a crash
// loses no-flush commits that were never forced, keeps everything up
// to the last force, and never tears the committed prefix.
func TestFlushSemanticsAcrossCrash(t *testing.T) {
	log := wal.NewMemDevice()
	data := NewMemStore()
	data.StoreRegion(1, make([]byte, 64))
	r, _ := Open(Options{Node: 1, Log: log, Data: data})
	reg, _ := r.Map(1, 64)

	commit := func(off uint64, val byte, mode CommitMode) {
		tx := r.Begin(NoRestore)
		if err := tx.SetRange(reg, off, 1); err != nil {
			t.Fatal(err)
		}
		reg.Bytes()[off] = val
		if _, err := tx.Commit(mode); err != nil {
			t.Fatal(err)
		}
	}
	commit(0, 1, Flush)   // durable
	commit(1, 2, NoFlush) // volatile
	commit(2, 3, NoFlush) // volatile

	log.CrashUnsynced()
	res, err := Recover(log, data, RecoverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != 1 {
		t.Fatalf("recovered %d records, want only the flushed one", res.Records)
	}
	img, _ := data.LoadRegion(1)
	if img[0] != 1 || img[1] != 0 || img[2] != 0 {
		t.Fatalf("image after crash = % x", img[:3])
	}
}

// TestRVMFlushMakesEarlierCommitsDurable: rvm_flush retroactively
// forces no-flush commits.
func TestRVMFlushMakesEarlierCommitsDurable(t *testing.T) {
	log := wal.NewMemDevice()
	data := NewMemStore()
	data.StoreRegion(1, make([]byte, 64))
	r, _ := Open(Options{Node: 1, Log: log, Data: data})
	reg, _ := r.Map(1, 64)

	tx := r.Begin(NoRestore)
	tx.SetRange(reg, 0, 1)
	reg.Bytes()[0] = 7
	tx.Commit(NoFlush)

	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	log.CrashUnsynced()
	res, err := Recover(log, data, RecoverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != 1 {
		t.Fatalf("recovered %d records after rvm_flush", res.Records)
	}
	img, _ := data.LoadRegion(1)
	if img[0] != 7 {
		t.Fatalf("image[0] = %d", img[0])
	}
}

// TestCrashMidFuzzyCheckpointConverges kills the node at every stage of
// a fuzzy checkpoint — after the image sweep but before the marker,
// after the marker but before the head trim, mid-marker (torn append),
// and after the trim — and checks recovery converges to the same image
// an uninterrupted run produces. The checkpoint must never create a
// window where committed data is unrecoverable.
func TestCrashMidFuzzyCheckpointConverges(t *testing.T) {
	log := wal.NewMemDevice()
	data := NewMemStore()
	r, _ := Open(Options{Node: 1, Log: log, Data: data})
	reg, _ := r.Map(1, 4*4096)

	commit := func(off uint64, s string) {
		tx := r.Begin(NoRestore)
		if err := tx.SetRange(reg, off, uint32(len(s))); err != nil {
			t.Fatal(err)
		}
		copy(reg.Bytes()[off:], s)
		if _, err := tx.Commit(Flush); err != nil {
			t.Fatal(err)
		}
	}

	type crash struct {
		name  string
		log   []byte
		store *MemStore
		want  []byte // committed image the crash must recover to
	}
	snap := func(name string, logBytes []byte) crash {
		return crash{
			name:  name,
			log:   append([]byte(nil), logBytes...),
			store: cloneStore(t, data),
			want:  append([]byte(nil), reg.Bytes()...),
		}
	}
	var crashes []crash

	commit(0, "pre1")
	commit(4096, "pre2")

	c := r.NewIncrementalCheckpointer(4096)
	if err := c.BeginConcurrent(); err != nil {
		t.Fatal(err)
	}
	if err := c.SweepRange(1, 0, uint64(reg.Size())); err != nil {
		t.Fatal(err)
	}
	// The sweep writes behind the caller: nothing has reached the store.
	crashes = append(crashes, snap("sweep-queued-nothing-stored", log.Bytes()))
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	commit(0, "mid1") // races the sweep: page 0's copy is stale
	crashes = append(crashes, snap("after-sweep-before-marker", log.Bytes()))

	if _, err := c.ResweepDirty(); err != nil {
		t.Fatal(err)
	}
	markerAt, end, err := c.FinishQuiesced()
	if err != nil {
		t.Fatal(err)
	}
	crashes = append(crashes, snap("after-marker-before-trim", log.Bytes()))
	// A crash mid-append tears the marker: keep a few header bytes so
	// the scanner sees a torn record, not a clean end.
	crashes = append(crashes, snap("torn-marker", log.Bytes()[:markerAt+5]))

	if err := r.TrimLogHeadLogical(end); err != nil {
		t.Fatal(err)
	}
	commit(8192, "post")
	crashes = append(crashes, snap("after-trim", log.Bytes()))

	for _, cr := range crashes {
		dev := wal.NewMemDevice()
		if len(cr.log) > 0 {
			dev.Append(cr.log)
			dev.Sync()
		}
		res, err := Recover(dev, cr.store, RecoverOptions{TruncateTorn: true})
		if err != nil {
			t.Fatalf("%s: recover: %v", cr.name, err)
		}
		img, err := cr.store.LoadRegion(1)
		if err != nil {
			t.Fatalf("%s: load: %v", cr.name, err)
		}
		// An image the store never held in full recovers short; mapping
		// zero-extends it.
		img = append(img, make([]byte, len(cr.want)-len(img))...)
		if !bytes.Equal(img, cr.want) {
			t.Fatalf("%s: recovered image diverges from committed state (res=%+v)", cr.name, res)
		}
	}
}

// TestCrashMidAppendIsTornNotCorrupt: a crash that lands inside an
// append leaves a cleanly detectable torn tail.
func TestCrashMidAppendIsTornNotCorrupt(t *testing.T) {
	log := wal.NewMemDevice()
	r, _ := Open(Options{Node: 1, Log: log})
	reg, _ := r.Map(1, 64)

	tx := r.Begin(NoRestore)
	tx.SetRange(reg, 0, 4)
	tx.Commit(Flush)
	syncedSize, _ := log.Size()

	// A second commit happens; the "disk" only got part of it.
	tx2 := r.Begin(NoRestore)
	tx2.SetRange(reg, 8, 4)
	tx2.Commit(NoFlush)
	full, _ := log.Size()
	log.Truncate(syncedSize + (full-syncedSize)/2) // physical tear
	res, err := Recover(log, NewMemStore(), RecoverOptions{TruncateTorn: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != 1 || !res.Torn || res.TornAt != syncedSize {
		t.Fatalf("res = %+v", res)
	}
	if sz, _ := log.Size(); sz != syncedSize {
		t.Fatalf("log not repaired: %d != %d", sz, syncedSize)
	}
}
