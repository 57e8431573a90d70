package rvm

import (
	"bytes"
	"errors"
	"testing"

	"lbc/internal/merge"
	"lbc/internal/metrics"
	"lbc/internal/wal"
)

// cloneStore copies every region image into a fresh MemStore, standing
// in for recovering against the permanent store as a crash would see it
// without disturbing the live one.
func cloneStore(t *testing.T, s DataStore) *MemStore {
	t.Helper()
	out := NewMemStore()
	ids, err := s.Regions()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		img, err := s.LoadRegion(id)
		if err != nil {
			t.Fatal(err)
		}
		out.StoreRegion(id, img)
	}
	return out
}

// TestFuzzySweepMarkerRecovery drives the concurrent checkpoint API the
// way the coordinator does — sweep, raced commit, dirty resweep, marker
// — but leaves the log untrimmed (the standalone/crash-window shape) and
// checks recovery starts at the marker and replays only the tail.
func TestFuzzySweepMarkerRecovery(t *testing.T) {
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

	commit(0, "pre1")
	commit(4096, "pre2")

	c := r.NewIncrementalCheckpointer(4096)
	if err := c.BeginConcurrent(); err != nil {
		t.Fatal(err)
	}
	// Sweep the whole region, then race a commit against the sweep: page
	// 0's swept copy is now stale and must be re-copied by ResweepDirty.
	if err := c.SweepRange(1, 0, uint64(reg.Size())); err != nil {
		t.Fatal(err)
	}
	commit(0, "mid1")
	if n, err := c.ResweepDirty(); err != nil || n != 1 {
		t.Fatalf("resweep: n=%d err=%v", n, err)
	}
	markerAt, end, err := c.FinishQuiesced()
	if err != nil {
		t.Fatal(err)
	}
	if sz, _ := log.Size(); end != sz || markerAt >= end {
		t.Fatalf("marker [%d,%d) vs log size %d", markerAt, end, sz)
	}

	// Post-checkpoint tail.
	commit(8192, "post")

	res, err := Recover(log, cloneStore(t, data), RecoverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Checkpointed || res.ReplayFrom != end {
		t.Fatalf("res = %+v, want replay from %d", res, end)
	}
	if res.Records != 1 || res.SkippedRecords != 3 {
		t.Fatalf("replayed %d skipped %d, want 1/3", res.Records, res.SkippedRecords)
	}
	if res.CheckpointLSN != uint64(markerAt) {
		t.Fatalf("marker LSN %d, want %d", res.CheckpointLSN, markerAt)
	}
	if r.Stats().Counter("checkpoint_markers") != 1 {
		t.Fatal("marker counter not incremented")
	}
}

// TestFuzzySweepRecoveredImageMatches: the cut-point invariant end to
// end — recover from the marker-bearing log into a copy of the
// permanent store and compare against the live image.
func TestFuzzySweepRecoveredImageMatches(t *testing.T) {
	log := wal.NewMemDevice()
	data := NewMemStore()
	r, _ := Open(Options{Node: 1, Log: log, Data: data})
	reg, _ := r.Map(1, 2*4096)

	for i := 0; i < 8; i++ {
		tx := r.Begin(NoRestore)
		off := uint64(i * 512)
		tx.SetRange(reg, off, 4)
		copy(reg.Bytes()[off:], []byte{byte(i + 1), 2, 3, 4})
		tx.Commit(Flush)
	}
	c := r.NewIncrementalCheckpointer(4096)
	c.BeginConcurrent()
	c.SweepRange(1, 0, uint64(reg.Size()))
	// Raced commit after its page was swept.
	tx := r.Begin(NoRestore)
	tx.SetRange(reg, 100, 4)
	copy(reg.Bytes()[100:], "RACE")
	tx.Commit(Flush)
	if _, err := c.ResweepDirty(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.FinishQuiesced(); err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), reg.Bytes()...)

	check := cloneStore(t, data)
	if _, err := Recover(log, check, RecoverOptions{}); err != nil {
		t.Fatal(err)
	}
	img, _ := check.LoadRegion(1)
	if !bytes.Equal(img, want) {
		t.Fatal("recovered image differs from live image")
	}
}

// TestAbortConcurrentLeavesNoMarker: an abandoned fuzzy sweep writes no
// marker and recovery replays from offset 0 as before.
func TestAbortConcurrentLeavesNoMarker(t *testing.T) {
	log := wal.NewMemDevice()
	data := NewMemStore()
	r, _ := Open(Options{Node: 1, Log: log, Data: data})
	reg, _ := r.Map(1, 4096)

	tx := r.Begin(NoRestore)
	tx.SetRange(reg, 0, 4)
	copy(reg.Bytes(), "pre ")
	tx.Commit(Flush)

	c := r.NewIncrementalCheckpointer(4096)
	c.BeginConcurrent()
	c.SweepRange(1, 0, 4096)
	c.AbortConcurrent()
	if r.dirty.Load() != nil {
		t.Fatal("dirty tracker still installed after abort")
	}

	res, err := Recover(log, cloneStore(t, data), RecoverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Checkpointed || res.ReplayFrom != 0 || res.Records != 1 {
		t.Fatalf("res = %+v", res)
	}
}

// TestBeginConcurrentExclusive: the in-progress guard lives in the
// RVM, not the checkpointer instance. A second fuzzy sweep on the same
// instance (e.g. a racing coordinator constructing its own
// checkpointer) must fail to start — if it replaced the first sweep's
// dirty tracker, either sweep finishing would silently disable the
// other's tracking and its resweep would miss pages dirtied by racing
// commits.
func TestBeginConcurrentExclusive(t *testing.T) {
	r, _ := Open(Options{Node: 1, Log: wal.NewMemDevice(), Data: NewMemStore()})
	if _, err := r.Map(1, 4096); err != nil {
		t.Fatal(err)
	}
	a := r.NewIncrementalCheckpointer(4096)
	b := r.NewIncrementalCheckpointer(4096)
	if err := a.BeginConcurrent(); err != nil {
		t.Fatal(err)
	}
	if err := b.BeginConcurrent(); err == nil {
		t.Fatal("second concurrent sweep started while the first was active")
	}
	if r.dirty.Load() == nil {
		t.Fatal("rejected begin clobbered the first sweep's dirty tracker")
	}
	// The loser's abort must not disturb the winner either.
	b.AbortConcurrent()
	if r.dirty.Load() == nil {
		t.Fatal("loser's abort removed the winner's dirty tracker")
	}
	a.AbortConcurrent()
	if r.dirty.Load() != nil {
		t.Fatal("dirty tracker leaked after the winner aborted")
	}
	if err := b.BeginConcurrent(); err != nil {
		t.Fatalf("sweep after the first one ended: %v", err)
	}
	b.AbortConcurrent()
}

// TestTrimLogHeadLogicalRebase: logical cuts are stable across head
// trims. A cut recorded before another checkpoint trims the log must,
// when applied later, remove only the bytes still below it — never
// records appended after it was recorded.
func TestTrimLogHeadLogicalRebase(t *testing.T) {
	log := wal.NewMemDevice()
	r, _ := Open(Options{Node: 1, Log: log, Data: NewMemStore()})
	reg, _ := r.Map(1, 4096)

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

	commit(0, "aaaa")
	commit(8, "bbbb")
	cut, err := r.LogCut()
	if err != nil {
		t.Fatal(err)
	}
	if sz, _ := log.Size(); cut != sz {
		t.Fatalf("fresh instance: logical cut %d != physical size %d", cut, sz)
	}

	// Another coordinator trims everything recorded so far, then a new
	// commit lands.
	if err := r.TrimLogHead(cut); err != nil {
		t.Fatal(err)
	}
	commit(16, "cccc")

	// Applying the stale cut now must be a no-op: everything below it
	// is already gone, and raw-offset trimming would delete the new
	// record instead.
	if err := r.TrimLogHeadLogical(cut); err != nil {
		t.Fatal(err)
	}
	txs, err := wal.ReadDevice(log)
	if err != nil {
		t.Fatal(err)
	}
	if len(txs) != 1 {
		t.Fatalf("%d records after stale-cut trim, want the post-trim commit only", len(txs))
	}

	// With a nonzero trimmed base, a cut between two records still
	// removes exactly the records below it.
	cutMid, _ := r.LogCut()
	commit(24, "dddd")
	if err := r.TrimLogHeadLogical(cutMid); err != nil {
		t.Fatal(err)
	}
	txs, _ = wal.ReadDevice(log)
	if len(txs) != 1 {
		t.Fatalf("%d records after mid-log logical trim, want 1", len(txs))
	}

	// A cut at the logical end empties the log; replaying any stale cut
	// afterwards stays a no-op.
	cutEnd, _ := r.LogCut()
	if cutEnd <= cutMid {
		t.Fatalf("logical offsets not monotonic: %d <= %d", cutEnd, cutMid)
	}
	if err := r.TrimLogHeadLogical(cutEnd); err != nil {
		t.Fatal(err)
	}
	if sz, _ := log.Size(); sz != 0 {
		t.Fatalf("log has %d bytes after trimming to its logical end", sz)
	}
	if err := r.TrimLogHeadLogical(cut); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointFlushClosed: Checkpoint and Flush on a closed instance
// fail with ErrClosed (they used to run against released state).
func TestCheckpointFlushClosed(t *testing.T) {
	r, _ := Open(Options{Node: 1, Log: wal.NewMemDevice(), Data: NewMemStore()})
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.Checkpoint(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Checkpoint after Close: %v, want ErrClosed", err)
	}
	if err := r.Flush(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Flush after Close: %v, want ErrClosed", err)
	}
}

// failSizeDevice wraps a device with a Size that always errors.
type failSizeDevice struct {
	wal.Device
}

func (d failSizeDevice) Size() (int64, error) {
	return 0, errors.New("injected size failure")
}

// TestNeedsCheckpointSizeError: a device error must not silently read
// as "no checkpoint pressure" — it is counted and treated as needing a
// checkpoint.
func TestNeedsCheckpointSizeError(t *testing.T) {
	r, _ := Open(Options{
		Node: 1,
		Log:  failSizeDevice{wal.NewMemDevice()},
		Data: NewMemStore(),

		LogHighWater: 1 << 20,
	})
	if !r.NeedsCheckpoint() {
		t.Fatal("unreadable log size reported as no checkpoint pressure")
	}
	if got := r.Stats().Counter(metrics.CtrCkptSizeErrors); got != 1 {
		t.Fatalf("checkpoint_size_errors = %d", got)
	}
	// Without a high-water mark the size is never consulted.
	r2, _ := Open(Options{Node: 2, Log: failSizeDevice{wal.NewMemDevice()}})
	if r2.NeedsCheckpoint() {
		t.Fatal("no high-water mark but NeedsCheckpoint true")
	}
}

// TestRecoverMergedMultiChainLog: recovery of a merged two-node log over
// three lock chains, with a checkpoint marker in the middle, replays
// exactly the tail in log order. Later records on a chain overwrite
// earlier ones, below the marker as well as above it, so the image is
// right only if every tail record installs, once, in order.
func TestRecoverMergedMultiChainLog(t *testing.T) {
	const chains, perChain, span, payload = 3, 8, 64, 48
	var all []*wal.TxRecord
	txSeq := map[uint32]uint64{}
	for seq := uint64(1); seq <= perChain; seq++ {
		for c := uint32(0); c < chains; c++ {
			node := uint32(1 + (seq+uint64(c))%2) // chains alternate between the two nodes
			txSeq[node]++
			data := bytes.Repeat([]byte{byte(16*c) + byte(seq)}, payload)
			all = append(all, &wal.TxRecord{
				Node: node, TxSeq: txSeq[node],
				Locks:  []wal.LockRec{{LockID: c, Seq: seq, PrevWriteSeq: seq - 1, Wrote: true}},
				Ranges: []wal.RangeRec{{Region: 1, Off: uint64(c)*span + (seq%2)*(span-payload), Data: data}},
			})
		}
	}
	ordered, err := merge.Order(all)
	if err != nil {
		t.Fatal(err)
	}

	// The marker vouches for an image holding the first `cut` records.
	const cut = 10
	want := make([]byte, chains*span)
	data := NewMemStore()
	log := wal.NewMemDevice()
	var tailBytes int
	for i, rec := range ordered {
		if i == cut {
			if err := data.StoreRegion(1, want); err != nil {
				t.Fatal(err)
			}
			sz, _ := log.Size()
			marker := &wal.TxRecord{Node: 1, Checkpoint: true, CheckpointLSN: uint64(sz)}
			if _, err := log.Append(wal.AppendStandard(nil, marker)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := log.Append(wal.AppendStandard(nil, rec)); err != nil {
			t.Fatal(err)
		}
		for _, r := range rec.Ranges {
			copy(want[r.Off:], r.Data)
			if i >= cut {
				tailBytes += len(r.Data)
			}
		}
	}
	if err := log.Sync(); err != nil {
		t.Fatal(err)
	}

	res, err := Recover(log, data, RecoverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Checkpointed || res.Records != len(ordered)-cut || res.SkippedRecords != cut || res.BytesApplied != tailBytes {
		t.Fatalf("recovery = %+v, want %d records replayed, %d skipped, %d bytes",
			res, len(ordered)-cut, cut, tailBytes)
	}
	got, err := data.LoadRegion(1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("recovered image differs from the records applied in log order")
	}
}
