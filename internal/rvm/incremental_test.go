package rvm

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"lbc/internal/wal"
)

func TestIncrementalSweepCheckpointsEverything(t *testing.T) {
	log := wal.NewMemDevice()
	data := NewMemStore()
	r, _ := Open(Options{Node: 1, Log: log, Data: data})
	reg, _ := r.Map(1, 3*4096+100) // deliberately not page-aligned

	tx := r.Begin(NoRestore)
	tx.SetRange(reg, 0, 5)
	copy(reg.Bytes(), "head!")
	tx.SetRange(reg, 3*4096+90, 5)
	copy(reg.Bytes()[3*4096+90:], "tail!")
	tx.Commit(NoFlush)

	c := r.NewIncrementalCheckpointer(4096)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if c.PagesDone() != 4 { // 3 full pages + 100-byte tail
		t.Fatalf("pages done = %d", c.PagesDone())
	}
	img, err := data.LoadRegion(1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(img, reg.Bytes()) {
		t.Fatal("checkpointed image differs from live image")
	}
	// The pre-sweep log is redundant and trimmed.
	if sz, _ := log.Size(); sz != 0 {
		t.Fatalf("log not trimmed: %d bytes", sz)
	}
}

func TestIncrementalSweepKeepsMidSweepCommits(t *testing.T) {
	log := wal.NewMemDevice()
	data := NewMemStore()
	r, _ := Open(Options{Node: 1, Log: log, Data: data})
	reg, _ := r.Map(1, 4*4096)

	tx := r.Begin(NoRestore)
	tx.SetRange(reg, 0, 4)
	copy(reg.Bytes(), "pre ")
	tx.Commit(NoFlush)

	c := r.NewIncrementalCheckpointer(4096)
	// Take two steps, then commit between steps (at a "lock boundary").
	for i := 0; i < 2; i++ {
		if done, err := c.Step(); err != nil || done {
			t.Fatalf("step %d: done=%v err=%v", i, done, err)
		}
	}
	tx2 := r.Begin(NoRestore)
	tx2.SetRange(reg, 0, 4) // page 0: already checkpointed this sweep!
	copy(reg.Bytes(), "mid ")
	tx2.Commit(NoFlush)

	for {
		done, err := c.Step()
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
	}
	// The mid-sweep commit landed after sweepStart, so its record must
	// survive the head trim: recovery must reproduce "mid ".
	txs, err := wal.ReadDevice(log)
	if err != nil {
		t.Fatal(err)
	}
	if len(txs) != 1 || string(txs[0].Ranges[0].Data) != "mid " {
		t.Fatalf("log after sweep holds %d records", len(txs))
	}
	if _, err := Recover(log, data, RecoverOptions{}); err != nil {
		t.Fatal(err)
	}
	img, _ := data.LoadRegion(1)
	if string(img[:4]) != "mid " {
		t.Fatalf("image = %q", img[:4])
	}
}

func TestIncrementalSweepNoRegions(t *testing.T) {
	r, _ := Open(Options{Node: 1})
	c := r.NewIncrementalCheckpointer(4096)
	done, err := c.Step()
	if err != nil || !done {
		t.Fatalf("empty sweep: done=%v err=%v", done, err)
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
// state, an incremental sweep leaves the permanent image identical to
// a whole-image checkpoint, and recovery over the trimmed log is a
// no-op that preserves it.
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
		if err := r.NewIncrementalCheckpointer(1024).Run(); err != nil {
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
