package store

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"lbc/internal/wal"
)

// TestAppendLogAtGuard covers the four offset cases: plain append,
// idempotent duplicate, divergent-tail heal, and behind.
func TestAppendLogAtGuard(t *testing.T) {
	srv, cli := newPair(t)

	recA := []byte("record-A")
	recB := []byte("record-B")

	size, err := cli.AppendLogAt(5, 0, recA)
	if err != nil || size != int64(len(recA)) {
		t.Fatalf("append: size=%d err=%v", size, err)
	}
	// Duplicate retry: same offset, same bytes — idempotent ack.
	size, err = cli.AppendLogAt(5, 0, recA)
	if err != nil || size != int64(len(recA)) {
		t.Fatalf("dup append: size=%d err=%v", size, err)
	}
	// Divergent tail: different bytes at an existing offset are the
	// canonical record superseding an unacked leftover — heal in place.
	size, err = cli.AppendLogAt(5, 0, recB)
	if err != nil || size != int64(len(recB)) {
		t.Fatalf("heal append: size=%d err=%v", size, err)
	}
	dev, err := srv.Log(5)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := dev.Open(0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(rc)
	rc.Close()
	if !bytes.Equal(buf.Bytes(), recB) {
		t.Fatalf("log after heal: %q", buf.Bytes())
	}
	// Behind: appending past the tail reports the replica's size.
	_, err = cli.AppendLogAt(5, 100, recA)
	var behind *BehindError
	if !errors.As(err, &behind) {
		t.Fatalf("expected BehindError, got %v", err)
	}
	if behind.Node != 5 || behind.Size != int64(len(recB)) {
		t.Fatalf("behind: %+v", behind)
	}
}

// TestAppendLogAtConcurrentDuplicates: the offset check and the
// mutation are atomic per log, so racing connections delivering the
// same record at the same offset all ack idempotently and the record
// lands exactly once (run with -race to catch the unlocked window).
func TestAppendLogAtConcurrentDuplicates(t *testing.T) {
	srv, _ := newPair(t)

	rec := []byte("concurrent-record")
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		cli, err := Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cli.Close() })
		wg.Add(1)
		go func(i int, cli *Client) {
			defer wg.Done()
			_, errs[i] = cli.AppendLogAt(9, 0, rec)
		}(i, cli)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	dev, err := srv.Log(9)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := dev.Open(0)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	var buf bytes.Buffer
	buf.ReadFrom(rc)
	if !bytes.Equal(buf.Bytes(), rec) {
		t.Fatalf("log after 8 racing duplicates: %d bytes, want %d", buf.Len(), len(rec))
	}
}

// TestClientLatencyHistograms: the per-op read/write/dial histograms
// are populated through Stats().
func TestClientLatencyHistograms(t *testing.T) {
	_, cli := newPair(t)
	if err := cli.StoreRegion(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.LoadRegion(1); err != nil {
		t.Fatal(err)
	}
	hists := cli.Stats().Hists()
	for _, name := range []string{"store_read_ns", "store_write_ns", "store_dial_ns"} {
		h, ok := hists[name]
		if !ok || h.Count == 0 {
			t.Fatalf("histogram %s not populated: %v", name, hists)
		}
	}
}

// TestRemoteLogAppendIdempotentAcrossMirror: the offset-guarded append
// path means a mirror that already holds the forwarded copy simply
// dup-acks; records never duplicate even when the same append is
// replayed against both sides of a replica pair.
func TestRemoteLogAppendIdempotentAcrossMirror(t *testing.T) {
	pair, err := NewReplicaPair("127.0.0.1:0", "127.0.0.1:0", ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer pair.Close()
	cli, err := DialFailover(pair.Primary.Addr(), pair.Backup.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	dev := cli.LogDevice(3)
	rec := wal.AppendStandard(nil, &wal.TxRecord{Node: 3, TxSeq: 1,
		Ranges: []wal.RangeRec{{Region: 1, Off: 0, Data: []byte("once")}}})
	if _, err := dev.Append(rec); err != nil {
		t.Fatal(err)
	}
	// Fail over to the backup (which already has the mirrored copy) and
	// append the next record: offsets must line up with no duplicates.
	pair.FailPrimary()
	rec2 := wal.AppendStandard(nil, &wal.TxRecord{Node: 3, TxSeq: 2,
		Ranges: []wal.RangeRec{{Region: 1, Off: 8, Data: []byte("twice")}}})
	if _, err := dev.Append(rec2); err != nil {
		t.Fatal(err)
	}
	blog, err := pair.Backup.Log(3)
	if err != nil {
		t.Fatal(err)
	}
	txs, err := wal.ReadDevice(blog)
	if err != nil {
		t.Fatal(err)
	}
	if len(txs) != 2 || txs[0].TxSeq != 1 || txs[1].TxSeq != 2 {
		t.Fatalf("backup log: %d records", len(txs))
	}
}
