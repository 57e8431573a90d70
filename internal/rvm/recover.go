package rvm

import (
	"errors"
	"fmt"
	"io"

	"lbc/internal/wal"
)

// RecoverOptions controls the recovery procedure.
type RecoverOptions struct {
	// TrimLog resets the log after its records have been applied to the
	// permanent images (they are then redundant).
	TrimLog bool
	// TruncateTorn removes a torn tail (an interrupted append) from the
	// log. Recovery always *ignores* a torn tail; this additionally
	// repairs the device. Implied by TrimLog.
	TruncateTorn bool
	// Quarantine salvages a log with *interior* corruption: damaged
	// ranges are skipped (reported in RecoverResult.Quarantined) and
	// every sound record on either side is replayed. The records lost
	// in the holes must then be re-fetched from peers (coherency
	// CatchUp) before the node rejoins. Without Quarantine interior
	// corruption fails recovery loudly — it is real data loss, not a
	// torn tail.
	Quarantine bool
}

// RecoverResult summarizes what recovery did.
type RecoverResult struct {
	Records      int   // committed records replayed
	BytesApplied int   // new-value bytes written into images
	Torn         bool  // log ended in a torn/corrupt record
	TornAt       int64 // offset of the valid prefix end when Torn

	// Checkpointed reports that a durable checkpoint marker was found;
	// replay then started at ReplayFrom (just past the last marker)
	// instead of offset 0, and SkippedRecords counts the committed
	// records below the cut that the marker made redundant.
	Checkpointed   bool
	ReplayFrom     int64
	SkippedRecords int
	// CheckpointLSN is the cut point recorded inside the marker (the
	// log offset at which it was appended). After a head trim it no
	// longer equals the marker's physical offset; recovery positions by
	// the physical offset and reports the LSN for observability.
	CheckpointLSN uint64
	// Quarantined lists the interior-corrupt byte ranges skipped when
	// RecoverOptions.Quarantine was set. Non-empty means committed
	// records may be missing locally and must be re-fetched from peers.
	Quarantined []wal.CorruptRange
}

// Recover replays committed records in the log into the permanent
// region images of the data store (the standard write-ahead recovery
// procedure: the log is the truth, the database file lags it).
//
// The log is streamed twice through wal.Scanner — nothing is buffered
// whole. Pass one locates the last durable checkpoint marker and sizes
// the images the replay will touch; the marker's invariant (§3.5) is
// that every record below it is already reflected in the permanent
// images, so pass two re-opens the device just past the marker and
// replays only the tail. With no marker the replay starts at offset 0,
// as before. A torn or corrupt marker never decodes, so a crash while
// the marker was being appended safely falls back to the previous
// start point — replaying records below an incomplete checkpoint is
// redundant but harmless (REDO is idempotent).
//
// Records install in log order. A single node's log is in commit order,
// and in the distributed configuration the log must first be merged
// from the per-node logs (internal/merge, §3.4), which emits a serial
// order that respects every lock chain; every such order recovers the
// same image, so no scheduling is needed offline.
func Recover(log wal.Device, data DataStore, opts RecoverOptions) (*RecoverResult, error) {
	// Pass one: stream the whole log to find the last checkpoint marker
	// and size every image the tail replay touches.
	rc, err := log.Open(0)
	if err != nil {
		return nil, fmt.Errorf("rvm: open log for recovery: %w", err)
	}
	sc := wal.NewScanner(rc, 0)
	if opts.Quarantine {
		sc.Salvage()
	}
	res := &RecoverResult{}
	need := map[uint32]uint64{} // region -> required image size
	var tailRecords, skipped int
	for {
		tx, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			rc.Close()
			return nil, err
		}
		if tx.Checkpoint {
			// Everything scanned so far is reflected in the images the
			// marker vouches for: restart the tail accounting here.
			res.Checkpointed = true
			res.ReplayFrom = sc.Pos()
			res.CheckpointLSN = tx.CheckpointLSN
			skipped += tailRecords
			tailRecords = 0
			need = map[uint32]uint64{}
			continue
		}
		tailRecords++
		for _, rec := range tx.Ranges {
			if rec.End() > need[rec.Region] {
				need[rec.Region] = rec.End()
			}
		}
	}
	res.Torn, res.TornAt = sc.Torn()
	res.SkippedRecords = skipped
	res.Quarantined = sc.Corrupt()
	rc.Close()

	images := map[uint32][]byte{}
	dirty := map[uint32]bool{}
	for id, atLeast := range need {
		img, err := data.LoadRegion(id)
		if err != nil && !errors.Is(err, ErrNoRegion) {
			return nil, fmt.Errorf("rvm: recovery load region %d: %w", id, err)
		}
		if uint64(len(img)) < atLeast {
			grown := make([]byte, atLeast)
			copy(grown, img)
			img = grown
		}
		images[id] = img
		dirty[id] = true
	}

	// Pass two: stream the tail from the replay start and install each
	// record as it is decoded.
	if tailRecords > 0 {
		rc, err = log.Open(res.ReplayFrom)
		if err != nil {
			return nil, fmt.Errorf("rvm: open log tail at %d: %w", res.ReplayFrom, err)
		}
		sc = wal.NewScanner(rc, res.ReplayFrom)
		if opts.Quarantine {
			sc.Salvage()
		}
		for {
			tx, err := sc.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				rc.Close()
				return nil, err
			}
			if tx.Checkpoint {
				continue
			}
			res.Records++
			for _, rec := range tx.Ranges {
				copy(images[rec.Region][rec.Off:rec.End()], rec.Data)
				res.BytesApplied += len(rec.Data)
			}
		}
		rc.Close()
	}

	for id := range dirty {
		if err := data.StoreRegion(id, images[id]); err != nil {
			return nil, fmt.Errorf("rvm: recovery store region %d: %w", id, err)
		}
	}
	if len(dirty) > 0 {
		if err := data.Sync(); err != nil {
			return nil, err
		}
	}

	switch {
	case opts.TrimLog:
		if err := log.Reset(); err != nil {
			return nil, fmt.Errorf("rvm: trim log: %w", err)
		}
	case opts.TruncateTorn && res.Torn:
		if err := log.Truncate(res.TornAt); err != nil {
			return nil, fmt.Errorf("rvm: truncate torn tail: %w", err)
		}
	}
	return res, nil
}
