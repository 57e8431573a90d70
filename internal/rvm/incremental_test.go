package rvm

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"lbc/internal/metrics"
	"lbc/internal/wal"
)

func TestIncrementalSweepCheckpointsEverything(t *testing.T) {
	log := wal.NewMemDevice()
	data := NewMemStore()
	r, _ := Open(Options{Node: 1, Log: log, Data: data})
	reg, _ := r.Map(1, 3*8192+100) // deliberately not page-aligned

	tx := r.Begin(NoRestore)
	tx.SetRange(reg, 0, 5)
	copy(reg.Bytes(), "head!")
	tx.SetRange(reg, 3*8192+90, 5)
	copy(reg.Bytes()[3*8192+90:], "tail!")
	tx.Commit(NoFlush)

	if err := r.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := r.Stats().Counter(metrics.CtrCkptSweepPages); got != 4 { // 3 full pages + 100-byte tail
		t.Fatalf("pages swept = %d", got)
	}
	img, err := data.LoadRegion(1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(img, reg.Bytes()) {
		t.Fatal("checkpointed image differs from live image")
	}
	// The pre-checkpoint log and the marker are redundant and trimmed.
	if sz, _ := log.Size(); sz != 0 {
		t.Fatalf("log not trimmed: %d bytes", sz)
	}
}

func TestIncrementalSweepNoRegions(t *testing.T) {
	log := wal.NewMemDevice()
	r, _ := Open(Options{Node: 1, Log: log, Data: NewMemStore()})
	if err := r.Checkpoint(); err != nil {
		t.Fatalf("empty checkpoint: %v", err)
	}
	if sz, _ := log.Size(); sz != 0 {
		t.Fatalf("empty checkpoint left %d log bytes", sz)
	}
}

func TestTrimLogHead(t *testing.T) {
	log := wal.NewMemDevice()
	r, _ := Open(Options{Node: 1, Log: log})
	reg, _ := r.Map(1, 256)
	for i := 0; i < 3; i++ {
		tx := r.Begin(NoRestore)
		tx.SetRange(reg, uint64(i*8), 4)
		copy(reg.Bytes()[i*8:], []byte{byte(i + 1), 0, 0, 0})
		tx.Commit(NoFlush)
	}
	txs, _ := wal.ReadDevice(log)
	if len(txs) != 3 {
		t.Fatalf("log holds %d", len(txs))
	}
	// Trim the first record's bytes.
	first := int64(wal.StandardSize(txs[0]))
	if err := r.TrimLogHead(first); err != nil {
		t.Fatal(err)
	}
	txs, err := wal.ReadDevice(log)
	if err != nil {
		t.Fatal(err)
	}
	if len(txs) != 2 || txs[0].TxSeq != 2 {
		t.Fatalf("after trim: %d records, first seq %d", len(txs), txs[0].TxSeq)
	}
	// Degenerate trims.
	if err := r.TrimLogHead(0); err != nil {
		t.Fatal(err)
	}
	if err := r.TrimLogHead(1 << 40); err == nil {
		t.Fatal("trim beyond end accepted")
	}
}

func TestDirStorePageWrites(t *testing.T) {
	s, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.StorePages(1, []PageWrite{{Off: 4096, Data: []byte("page one")}}); err != nil {
		t.Fatal(err)
	}
	if err := s.StorePages(1, []PageWrite{{Off: 0, Data: []byte("page zero")}}); err != nil {
		t.Fatal(err)
	}
	img, err := s.LoadRegion(1)
	if err != nil {
		t.Fatal(err)
	}
	if string(img[:9]) != "page zero" || string(img[4096:4104]) != "page one" {
		t.Fatalf("img = %q ... %q", img[:9], img[4096:4104])
	}
}

// TestPropertyIncrementalEqualsFullCheckpoint: for any committed
// state, a checkpoint leaves the permanent image identical to the live
// image, and recovery over the trimmed log is a no-op that preserves it.
func TestPropertyIncrementalEqualsFullCheckpoint(t *testing.T) {
	f := func(seed int64, nTx uint8) bool {
		log := wal.NewMemDevice()
		data := NewMemStore()
		r, _ := Open(Options{Node: 1, Log: log, Data: data})
		reg, _ := r.Map(1, 8192)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < int(nTx%10)+1; i++ {
			tx := r.Begin(NoRestore)
			off := uint64(rng.Intn(8000))
			n := uint32(rng.Intn(100) + 1)
			tx.SetRange(reg, off, n)
			rng.Read(reg.Bytes()[off : off+uint64(n)])
			tx.Commit(NoFlush)
		}
		want := append([]byte(nil), reg.Bytes()...)
		if err := r.Checkpoint(); err != nil {
			return false
		}
		img, _ := data.LoadRegion(1)
		if !bytes.Equal(img, want) {
			return false
		}
		if _, err := Recover(log, data, RecoverOptions{}); err != nil {
			return false
		}
		img, _ = data.LoadRegion(1)
		return bytes.Equal(img, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
