package rvm

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"lbc/internal/bufpool"
	"lbc/internal/metrics"
	"lbc/internal/wal"
)

// Incremental, page-at-a-time checkpointing: the improved log-trimming
// scheme the paper points to in §3.5 ("nodes checkpoint a page at a
// time by writing the current version of a page to the checkpoint
// file. Log records for updates made to a page before it was
// checkpointed can be discarded"), attractive in the distributed
// setting because it does not require the per-node logs to be merged.
//
// There is one driver, and it is fuzzy: BeginConcurrent installs a
// dirty-page tracker; SweepRange copies a range while the caller holds
// the lock covering it, so a copy never captures uncommitted bytes and
// commits under other locks proceed (cf. Janssens & Fuchs checkpointing
// at lock releases, §5); then, under a full quiesce, SweepQuiesced
// covers what no lock does, ResweepDirty re-copies every page a commit
// touched since its copy, and FinishQuiesced forces the images and
// appends a checkpoint marker. Every update logged before the marker is
// now reflected in the permanent images, so the log head up to the
// marker can be trimmed (TrimLogHeadLogical). The coherency layer's
// coordinated checkpoint drives it across a cluster; RVM.Checkpoint
// drives it on one instance whose caller has quiesced commits.

// PageWrite is one in-place write of a region image: Data lands at byte
// offset Off.
type PageWrite struct {
	Off  int64
	Data []byte
}

// pagesExtent returns the furthest image byte a batch reaches, rejecting
// negative and overflowing offsets.
func pagesExtent(pages []PageWrite) (int64, error) {
	var need int64
	for _, p := range pages {
		end := p.Off + int64(len(p.Data))
		if p.Off < 0 || end < p.Off {
			return 0, fmt.Errorf("rvm: page write at offset %d (%d bytes) out of range", p.Off, len(p.Data))
		}
		if end > need {
			need = end
		}
	}
	return need, nil
}

// sweepBatchBytes is how many copied bytes a fuzzy sweep accumulates
// before shipping them as one vectored store write: large enough that a
// region costs O(size/1 MiB) round trips, small enough that one write
// occupies the store connection — which commits' log appends share —
// for about a millisecond.
const sweepBatchBytes = 1 << 20

// sweepBatch is one vectored write on its way to the writer goroutine.
// A batch with done set is a barrier: the writer answers it with the
// first error it has met so far.
type sweepBatch struct {
	region uint32
	pages  []PageWrite
	bufs   [][]byte // pooled copies backing pages; recycled once written
	done   chan error
}

// IncrementalCheckpointer sweeps mapped regions page by page.
type IncrementalCheckpointer struct {
	r        *RVM
	pageSize int

	concurrent bool          // a fuzzy sweep (BeginConcurrent) is in progress
	tracker    *dirtyTracker // this sweep's tracker, installed in r.dirty

	// Write-behind state of a fuzzy sweep. SweepRange and ResweepDirty
	// fill pending on the caller's goroutine; full batches travel over
	// batches to the single writer goroutine, whose FIFO order is what
	// lets a later copy of a page supersede an earlier one on the store.
	pending      sweepBatch
	pendingBytes int
	batches      chan sweepBatch
	writerDone   chan struct{}
}

// pageKey identifies one page of one region in the dirty tracker.
type pageKey struct {
	region uint32
	page   uint64
}

// dirtyTracker records pages written while a fuzzy sweep runs, so the
// final quiesced step can re-copy exactly the pages whose swept copies
// may have gone stale. It is installed in RVM.dirty for the duration of
// a BeginConcurrent..FinishQuiesced window.
type dirtyTracker struct {
	mu       sync.Mutex
	pageSize uint64
	pages    map[pageKey]struct{}
}

func (t *dirtyTracker) markRanges(ranges []wal.RangeRec) {
	if len(ranges) == 0 {
		return
	}
	t.mu.Lock()
	for _, rec := range ranges {
		if len(rec.Data) == 0 {
			continue
		}
		first := rec.Off / t.pageSize
		last := (rec.End() - 1) / t.pageSize
		for p := first; p <= last; p++ {
			t.pages[pageKey{region: rec.Region, page: p}] = struct{}{}
		}
	}
	t.mu.Unlock()
}

func (t *dirtyTracker) markRange(region uint32, off, end uint64) {
	if end <= off {
		return
	}
	t.mu.Lock()
	first := off / t.pageSize
	last := (end - 1) / t.pageSize
	for p := first; p <= last; p++ {
		t.pages[pageKey{region: region, page: p}] = struct{}{}
	}
	t.mu.Unlock()
}

// take returns and clears the dirtied page set.
func (t *dirtyTracker) take() []pageKey {
	t.mu.Lock()
	keys := make([]pageKey, 0, len(t.pages))
	for k := range t.pages {
		keys = append(keys, k)
	}
	t.pages = map[pageKey]struct{}{}
	t.mu.Unlock()
	return keys
}

// markDirty records the ranges in the active dirty tracker, if a fuzzy
// sweep is running. Called from commit (after gather), remote applies
// and restore-mode aborts — every path that writes a mapped image.
func (r *RVM) markDirty(ranges []wal.RangeRec) {
	if t := r.dirty.Load(); t != nil {
		t.markRanges(ranges)
	}
}

// markDirtyRange is the single-range variant used by Abort's undo path.
func (r *RVM) markDirtyRange(region uint32, off, end uint64) {
	if t := r.dirty.Load(); t != nil {
		t.markRange(region, off, end)
	}
}

// NewIncrementalCheckpointer creates a checkpointer with the given
// page granularity (0 means 8192).
func (r *RVM) NewIncrementalCheckpointer(pageSize int) *IncrementalCheckpointer {
	if pageSize <= 0 {
		pageSize = 8192
	}
	return &IncrementalCheckpointer{r: r, pageSize: pageSize}
}

// writeLoop is the sweep's single writer: it stores batches in arrival
// order, recycles their buffers, and after a failed write drops the rest
// (the sweep is lost; the next barrier reports why).
func (c *IncrementalCheckpointer) writeLoop() {
	defer close(c.writerDone)
	var failed error
	for b := range c.batches {
		if failed == nil && len(b.pages) > 0 {
			failed = c.r.data.StorePages(b.region, b.pages)
		}
		for _, buf := range b.bufs {
			bufpool.Put(buf)
		}
		if b.done != nil {
			b.done <- failed
		}
	}
}

// queue adds one write to the pending batch, shipping the batch first if
// it belongs to another region and afterwards if it is full. pooled
// marks data as a bufpool copy the writer recycles. Shipping blocks only
// while the writer is a whole batch behind, which bounds the copies in
// flight to three batches.
func (c *IncrementalCheckpointer) queue(region uint32, off int64, data []byte, pooled bool) {
	if len(c.pending.pages) > 0 && c.pending.region != region {
		c.ship(nil)
	}
	c.pending.region = region
	c.pending.pages = append(c.pending.pages, PageWrite{Off: off, Data: data})
	if pooled {
		c.pending.bufs = append(c.pending.bufs, data)
	}
	c.pendingBytes += len(data)
	if c.pendingBytes >= sweepBatchBytes {
		c.ship(nil)
	}
}

// ship hands the pending batch to the writer.
func (c *IncrementalCheckpointer) ship(done chan error) {
	c.pending.done = done
	c.batches <- c.pending
	c.pending, c.pendingBytes = sweepBatch{}, 0
}

// Drain ships whatever the sweep has queued and returns once the writer
// has stored everything handed to it, reporting the first write error
// of the sweep. The coordinator drains before taking the quiesce so the
// fuzzy phase's leftovers are not written with every lock held.
func (c *IncrementalCheckpointer) Drain() error {
	if !c.concurrent {
		return errors.New("rvm: Drain without BeginConcurrent")
	}
	done := make(chan error, 1)
	c.ship(done)
	return <-done
}

// stopWriter ends the fuzzy sweep's write-behind: queued copies are
// dropped and the writer goroutine has exited on return.
func (c *IncrementalCheckpointer) stopWriter() {
	for _, buf := range c.pending.bufs {
		bufpool.Put(buf)
	}
	c.pending, c.pendingBytes = sweepBatch{}, 0
	close(c.batches)
	<-c.writerDone
}

// BeginConcurrent starts a fuzzy sweep: a dirty-page tracker is
// installed, so pages written by commits, remote applies and aborts
// racing the sweep are recorded for re-copy. The caller then drives
// SweepRange (holding the covering segment lock for each range, which
// keeps uncommitted bytes out of the copies), and seals the checkpoint
// with SweepQuiesced for whatever no lock covers, ResweepDirty and
// FinishQuiesced under a full quiesce.
func (c *IncrementalCheckpointer) BeginConcurrent() error {
	if c.concurrent {
		return errors.New("rvm: concurrent sweep already in progress")
	}
	t := &dirtyTracker{
		pageSize: uint64(c.pageSize),
		pages:    map[pageKey]struct{}{},
	}
	// The in-progress guard lives in the RVM, not this instance: a
	// second checkpointer on the same RVM (e.g. a racing coordinator)
	// must fail to start rather than replace the first sweep's tracker —
	// either sweep finishing would silently disable the other's dirty
	// tracking and its resweep would miss racing commits.
	if !c.r.dirty.CompareAndSwap(nil, t) {
		return errors.New("rvm: another fuzzy sweep is already in progress on this instance")
	}
	c.tracker = t
	c.concurrent = true
	c.batches = make(chan sweepBatch, 1)
	c.writerDone = make(chan struct{})
	go c.writeLoop()
	return nil
}

// SweepRange copies the bytes [off, off+n) of region id into pooled
// buffers and queues them for the permanent store; the writer goroutine
// stores them behind the caller, so the caller's lock is held for a
// memory copy, not a store round trip. The caller must hold the segment
// lock covering the range: the lock excludes concurrent writers from
// these bytes (a copy never captures uncommitted data) and the acquire
// interlock guarantees all committed peer updates to the range have
// been applied locally. Only the exact range is read, so writers under
// *other* locks proceed concurrently without a data race. Writing after
// the lock is released is safe because a commit that lands in between
// marks its pages dirty, and ResweepDirty queues their final copies
// behind this one on the same in-order writer — given that no other
// checkpointer writes the same store meanwhile, which the caller must
// ensure (coherency serializes coordinators cluster-wide). A store
// failure surfaces at the next Drain.
func (c *IncrementalCheckpointer) SweepRange(id RegionID, off, n uint64) error {
	return c.sweep(id, off, n, true)
}

// SweepQuiesced is SweepRange for a caller that holds every lock until
// ResweepDirty has returned: with all writers excluded the range is
// queued straight from the mapped image, no copy.
func (c *IncrementalCheckpointer) SweepQuiesced(id RegionID, off, n uint64) error {
	return c.sweep(id, off, n, false)
}

func (c *IncrementalCheckpointer) sweep(id RegionID, off, n uint64, copied bool) error {
	if !c.concurrent {
		return errors.New("rvm: sweep without BeginConcurrent")
	}
	reg := c.r.Region(id)
	if reg == nil {
		return nil // unmapped: nothing cached locally to checkpoint
	}
	end := off + n
	if end > uint64(reg.Size()) {
		end = uint64(reg.Size())
	}
	if end <= off {
		return nil
	}
	for at := off; at < end; {
		stop := at + sweepBatchBytes
		if stop > end {
			stop = end
		}
		data := reg.Bytes()[at:stop]
		if copied {
			data = append(bufpool.Get(len(data)), data...)
		}
		c.queue(uint32(id), int64(at), data, copied)
		at = stop
	}
	ps := uint64(c.pageSize)
	pages := int((end-1)/ps - off/ps + 1)
	c.r.stats.Add(metrics.CtrCkptSweepPages, int64(pages))
	c.r.stats.Add(metrics.CtrCkptSweepBytes, int64(end-off))
	return nil
}

// ResweepDirty re-copies every page dirtied since BeginConcurrent and
// drains the writer, so on return the store holds everything the sweep
// queued — typically in one vectored write, whatever the dirty count.
// Must run under a full quiesce (all segment locks held): the racing
// writers are excluded, so whole pages are written straight from the
// mapped image, and nothing can dirty a page after it is re-copied.
// Returns the number of pages re-swept.
func (c *IncrementalCheckpointer) ResweepDirty() (int, error) {
	if !c.concurrent {
		return 0, errors.New("rvm: ResweepDirty without BeginConcurrent")
	}
	keys := c.tracker.take()
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].region != keys[j].region {
			return keys[i].region < keys[j].region
		}
		return keys[i].page < keys[j].page
	})
	ps := uint64(c.pageSize)
	var done int
	for _, k := range keys {
		reg := c.r.Region(RegionID(k.region))
		if reg == nil {
			continue
		}
		start := k.page * ps
		if start >= uint64(reg.Size()) {
			continue
		}
		end := start + ps
		if end > uint64(reg.Size()) {
			end = uint64(reg.Size())
		}
		c.queue(k.region, int64(start), reg.Bytes()[start:end], false)
		done++
	}
	if err := c.Drain(); err != nil {
		return 0, fmt.Errorf("rvm: checkpoint page write: %w", err)
	}
	c.r.stats.Add(metrics.CtrCkptDirtyPages, int64(done))
	return done, nil
}

// FinishQuiesced seals the fuzzy sweep: the swept pages are forced to
// the permanent store, a checkpoint marker carrying the cut-point LSN
// is appended and synced, and dirty tracking stops. Must run under the
// same quiesce as ResweepDirty, with no commits in flight. It returns
// the marker's physical offset (the recovery cut) and the *logical*
// offset just past it — the head-trim point, expressed as a LogCut
// value so applying it via TrimLogHeadLogical composes with any trim
// applied in between.
func (c *IncrementalCheckpointer) FinishQuiesced() (markerAt, end int64, err error) {
	if !c.concurrent {
		return 0, 0, errors.New("rvm: FinishQuiesced without BeginConcurrent")
	}
	// The marker vouches for every page queued: none may still be in
	// flight when the images are forced.
	if err := c.Drain(); err != nil {
		return 0, 0, fmt.Errorf("rvm: checkpoint page write: %w", err)
	}
	if err := c.r.data.Sync(); err != nil {
		return 0, 0, fmt.Errorf("rvm: checkpoint sync: %w", err)
	}
	markerAt, end, err = c.r.AppendCheckpointMarker()
	if err != nil {
		return 0, 0, err
	}
	// Uninstall only our own tracker (CAS, not Store): never clobber a
	// tracker some other sweep installed.
	c.r.dirty.CompareAndSwap(c.tracker, nil)
	c.tracker = nil
	c.concurrent = false
	c.stopWriter()
	return markerAt, end, nil
}

// AbortConcurrent abandons a fuzzy sweep: dirty tracking stops and no
// marker is written. Pages already copied are harmless (they reflect
// committed bytes); the log is not trimmed. Safe to call after
// FinishQuiesced (no-op).
func (c *IncrementalCheckpointer) AbortConcurrent() {
	if !c.concurrent {
		return
	}
	c.r.dirty.CompareAndSwap(c.tracker, nil)
	c.tracker = nil
	c.concurrent = false
	c.stopWriter()
}

// TrimLogHead discards the log prefix [0, upTo), where upTo is a
// physical offset into the current log: the records there are
// reflected in checkpointed pages. Devices implementing wal.HeadTrimmer
// (file and memory logs) drop the prefix crash-atomically; otherwise
// the tail is re-written in place under the exclusive log latch, so
// commit appends racing the rewrite (they run outside the instance
// mutex) cannot be dropped. Callers holding a cut recorded in the past
// should prefer TrimLogHeadLogical, which stays correct across
// intervening trims.
func (r *RVM) TrimLogHead(upTo int64) error {
	if upTo <= 0 {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.trimLogHeadLocked(upTo)
}

// TrimLogHeadLogical trims the log head to the given logical cut (a
// LogCut or checkpoint-marker end value), rebasing it against bytes
// already trimmed. Several trims may be pending against the same log:
// whichever applies later removes only the bytes still below its own
// cut, so a cut recorded before another trim can never delete records
// appended after it was recorded. A cut at or below the
// current head is a no-op.
func (r *RVM) TrimLogHeadLogical(cut int64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	phys := cut - r.trimmed
	if phys <= 0 {
		return nil // an earlier trim already covered this cut
	}
	return r.trimLogHeadLocked(phys)
}

// trimLogHeadLocked discards [0, upTo) with r.mu held, advancing the
// cumulative trimmed counter that anchors logical log offsets.
func (r *RVM) trimLogHeadLocked(upTo int64) error {
	if ht, ok := r.log.(wal.HeadTrimmer); ok {
		if err := ht.TrimHead(upTo); err != nil {
			return err
		}
		r.trimmed += upTo
		r.stats.Add(metrics.CtrLogTrims, 1)
		return nil
	}
	// Generic rewrite: freeze the log across read-tail/Reset/re-append.
	// Without the exclusive latch a commit landing between the tail read
	// and the Reset would be silently erased.
	r.logMu.Lock()
	defer r.logMu.Unlock()
	sz, err := r.log.Size()
	if err != nil {
		return err
	}
	if upTo > sz {
		return fmt.Errorf("rvm: trim head %d beyond log end %d", upTo, sz)
	}
	rc, err := r.log.Open(upTo)
	if err != nil {
		return err
	}
	tail, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		return err
	}
	if err := r.log.Reset(); err != nil {
		return err
	}
	if len(tail) > 0 {
		if _, err := r.log.Append(tail); err != nil {
			return err
		}
	}
	if err := r.log.Sync(); err != nil {
		return err
	}
	r.trimmed += upTo
	r.stats.Add(metrics.CtrLogTrims, 1)
	return nil
}
