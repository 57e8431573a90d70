package bench

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"lbc/internal/rvm"
	"lbc/internal/wal"
)

// Recovery-time experiment for checkpoint-bounded replay: the same
// committed history is recovered from a cold log (no checkpoint: every
// record replays from offset 0) and from a checkpointed log (a durable
// marker at the cut makes all but the tail redundant). The committed
// state is identical in both runs, so the recovered images must match
// byte for byte — the run fails otherwise. The headline number is the
// cold/checkpointed ratio (the marker's tail-only replay win at fixed
// log size).

// RecoverBench is the BENCH_recover.json document.
type RecoverBench struct {
	Bench   string `json:"bench"`
	Records int    `json:"records"`
	Payload int    `json:"payload_bytes"`
	Chains  int    `json:"chains"`

	LogBytes    int64 `json:"log_bytes"`    // cold log size
	TailRecords int   `json:"tail_records"` // records above the marker
	SkippedRecs int   `json:"skipped_recs"` // records below the marker
	ReplayFrom  int64 `json:"replay_from"`  // marker cut in the ckpt log

	ColdMS float64 `json:"cold_ms"`
	CkptMS float64 `json:"ckpt_ms"`

	CkptBenefit float64 `json:"ckpt_benefit"` // cold / ckpt
}

// recoverSpan is the bytes of region each lock chain's writes cover.
const recoverSpan = 256 << 10

// RunRecoverBench builds one committed history, derives the cold and
// checkpointed logs from it, and times the recovery of each. cutFrac is
// the fraction of records below the checkpoint marker.
func RunRecoverBench(records, payload, chains int, cutFrac float64) (*RecoverBench, error) {
	if chains < 1 || records < chains {
		return nil, fmt.Errorf("bench: need records >= chains >= 1, got %d/%d", records, chains)
	}
	out := &RecoverBench{
		Bench: "recover", Records: records, Payload: payload,
		Chains: chains,
	}

	recs, encoded := buildRecoverHistory(records, payload, chains)
	regionSize := chains * recoverSpan

	// Cold log: every record, no marker.
	var coldBuf []byte
	for _, e := range encoded {
		coldBuf = append(coldBuf, e...)
	}
	out.LogBytes = int64(len(coldBuf))

	// Checkpointed log: the same records with a durable marker after the
	// first cut*N of them, plus the permanent image the marker vouches
	// for (exactly what a completed fuzzy sweep leaves behind when the
	// head trim was not yet performed — the crash-window shape, which
	// keeps the log length comparable to the cold run).
	cut := int(float64(records) * cutFrac)
	if cut < 0 {
		cut = 0
	}
	if cut > records {
		cut = records
	}
	var prefixLen int64
	for _, e := range encoded[:cut] {
		prefixLen += int64(len(e))
	}
	marker := &wal.TxRecord{Node: 1, Checkpoint: true, CheckpointLSN: uint64(prefixLen)}
	mbuf := wal.AppendStandard(nil, marker)
	ckptBuf := append(append(append([]byte(nil), coldBuf[:prefixLen]...), mbuf...), coldBuf[prefixLen:]...)
	ckptImage := make([]byte, regionSize)
	for _, r := range recs[:cut] {
		for _, rng := range r.Ranges {
			copy(ckptImage[rng.Off:rng.End()], rng.Data)
		}
	}
	out.TailRecords = records - cut
	out.SkippedRecs = cut

	coldDev := deviceFrom(coldBuf)
	ckptDev := deviceFrom(ckptBuf)

	type mode struct {
		name  string
		dev   *wal.MemDevice
		image []byte // pre-checkpointed permanent image, nil for cold
		ms    *float64
	}
	modes := []mode{
		{"cold", coldDev, nil, &out.ColdMS},
		{"ckpt", ckptDev, ckptImage, &out.CkptMS},
	}
	var wantSum [sha256.Size]byte
	for i, m := range modes {
		best := -1.0
		var sum [sha256.Size]byte
		for rep := 0; rep < 3; rep++ {
			store := rvm.NewMemStore()
			if m.image != nil {
				store.StoreRegion(1, m.image)
			}
			start := time.Now()
			res, err := rvm.Recover(m.dev, store, rvm.RecoverOptions{})
			elapsed := time.Since(start).Seconds() * 1000
			if err != nil {
				return nil, fmt.Errorf("bench: %s: %w", m.name, err)
			}
			// Structural gates: the checkpointed runs must actually start
			// at the marker and replay only the tail.
			if m.image != nil {
				if !res.Checkpointed || res.ReplayFrom != prefixLen+int64(len(mbuf)) {
					return nil, fmt.Errorf("bench: %s did not position at the marker: %+v", m.name, res)
				}
				if res.Records != out.TailRecords || res.SkippedRecords != cut {
					return nil, fmt.Errorf("bench: %s replayed %d/skipped %d, want %d/%d",
						m.name, res.Records, res.SkippedRecords, out.TailRecords, cut)
				}
				out.ReplayFrom = res.ReplayFrom
			} else if res.Checkpointed || res.Records != records {
				return nil, fmt.Errorf("bench: %s replayed %d records, want %d", m.name, res.Records, records)
			}
			if best < 0 || elapsed < best {
				best = elapsed
			}
			if rep == 0 {
				img, err := store.LoadRegion(1)
				if err != nil {
					return nil, fmt.Errorf("bench: %s: %w", m.name, err)
				}
				// Cold recovery sizes the image by the highest written
				// byte; pad so both modes digest the same shape.
				if len(img) < regionSize {
					img = append(img, make([]byte, regionSize-len(img))...)
				}
				sum = sha256.Sum256(img)
			}
		}
		*m.ms = best
		if i == 0 {
			wantSum = sum
		} else if sum != wantSum {
			return nil, fmt.Errorf("bench: %s diverged: %x != %x", m.name, sum[:8], wantSum[:8])
		}
	}

	if out.CkptMS > 0 {
		out.CkptBenefit = out.ColdMS / out.CkptMS
	}
	return out, nil
}

// buildRecoverHistory fabricates the committed history: records rotate
// round-robin across chains, each chain a strict write sequence over
// its own span, later sequences overwriting earlier ones (the shape of
// a merged multi-lock log).
func buildRecoverHistory(records, payload, chains int) ([]*wal.TxRecord, [][]byte) {
	slots := recoverSpan / payload
	recs := make([]*wal.TxRecord, 0, records)
	encoded := make([][]byte, 0, records)
	seqs := make([]uint64, chains)
	for i := 0; i < records; i++ {
		c := i % chains
		seqs[c]++
		seq := seqs[c]
		base := uint64(c) * recoverSpan
		off := base + uint64(int(seq)%slots)*uint64(payload)
		data := make([]byte, payload)
		for j := range data {
			data[j] = byte(uint64(c)*31 + seq*7 + uint64(j))
		}
		rec := &wal.TxRecord{
			Node: 1, TxSeq: uint64(i + 1),
			Locks: []wal.LockRec{{
				LockID: uint32(c), Seq: seq, PrevWriteSeq: seq - 1, Wrote: true,
			}},
			Ranges: []wal.RangeRec{{Region: 1, Off: off, Data: data}},
		}
		buf := wal.AppendStandard(make([]byte, 0, wal.StandardSize(rec)), rec)
		recs = append(recs, rec)
		encoded = append(encoded, buf)
	}
	return recs, encoded
}

// deviceFrom wraps raw log bytes in a synced MemDevice.
func deviceFrom(b []byte) *wal.MemDevice {
	d := wal.NewMemDevice()
	if len(b) > 0 {
		d.Append(b)
		d.Sync()
	}
	return d
}

// WriteRecoverBench writes the document to path as indented JSON.
func WriteRecoverBench(b *RecoverBench, path string) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadRecoverBench loads a BENCH_recover.json document.
func ReadRecoverBench(path string) (*RecoverBench, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b RecoverBench
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("bench: parse %s: %w", path, err)
	}
	return &b, nil
}

// CheckRecoverBench is the bench-regression gate: the checkpoint's
// tail-only-replay benefit must hold at frac of the baseline's. The
// structural marker gates in RunRecoverBench already fail a build whose
// recovery ignores the checkpoint.
func CheckRecoverBench(fresh, baseline *RecoverBench, frac float64) error {
	if baseline.CkptBenefit <= 0 {
		return fmt.Errorf("bench: baseline has no checkpoint-benefit data")
	}
	if fresh.CkptBenefit < baseline.CkptBenefit*frac {
		return fmt.Errorf("bench: checkpoint-recovery regression: fresh benefit %.2fx < %.0f%% of baseline %.2fx",
			fresh.CkptBenefit, frac*100, baseline.CkptBenefit)
	}
	return nil
}
