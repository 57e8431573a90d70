package store

import (
	"bytes"
	"errors"
	"runtime"
	"sync"
	"testing"

	"lbc/internal/wal"
)

func newVersionedPair(t *testing.T) (*Server, *Client) {
	t.Helper()
	srv, err := NewServer("127.0.0.1:0", ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	return srv, cli
}

// TestVersionedRegionOps: version tags are monotonic, stale writes ack
// idempotently, and meta regions stay hidden from ListRegions.
func TestVersionedRegionOps(t *testing.T) {
	_, cli := newVersionedPair(t)

	if ver, data, err := cli.ReadVersioned(1); err != nil || ver != 0 || data != nil {
		t.Fatalf("absent region: ver=%d data=%q err=%v", ver, data, err)
	}
	cur, err := cli.WriteVersioned(1, 3, []byte("v3"))
	if err != nil || cur != 3 {
		t.Fatalf("write v3: cur=%d err=%v", cur, err)
	}
	// A stale write must not regress the image but still ack with the
	// current version.
	cur, err = cli.WriteVersioned(1, 2, []byte("v2"))
	if err != nil || cur != 3 {
		t.Fatalf("stale write: cur=%d err=%v", cur, err)
	}
	ver, data, err := cli.ReadVersioned(1)
	if err != nil || ver != 3 || string(data) != "v3" {
		t.Fatalf("read: ver=%d data=%q err=%v", ver, data, err)
	}
	if v, err := cli.VersionOf(1); err != nil || v != 3 {
		t.Fatalf("version of: %d, %v", v, err)
	}
	ids, err := cli.Regions()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if id >= metaRegionMin {
			t.Fatalf("meta region %d leaked into ListRegions", id)
		}
	}
	if len(ids) != 1 || ids[0] != 1 {
		t.Fatalf("regions: %v", ids)
	}
	if _, err := cli.WriteVersioned(metaRegionView, 1, []byte("nope")); err == nil {
		t.Fatal("writing a reserved region succeeded")
	}
}

// TestWriteVersionedEqualTagConflict: a duplicate delivery of the same
// (version, data) pair acks idempotently, but different data under an
// already-installed tag is a writer collision and must be rejected —
// otherwise two racing writers could leave replicas divergent under one
// tag, which read-repair (keyed on tag inequality) can never reconcile.
func TestWriteVersionedEqualTagConflict(t *testing.T) {
	_, cli := newVersionedPair(t)

	if _, err := cli.WriteVersioned(1, 5, []byte("canonical")); err != nil {
		t.Fatal(err)
	}
	// Same tag, same bytes: idempotent ack (a client retry).
	cur, err := cli.WriteVersioned(1, 5, []byte("canonical"))
	if err != nil || cur != 5 {
		t.Fatalf("idempotent dup: cur=%d err=%v", cur, err)
	}
	// Same tag, different bytes: rejected, image untouched.
	if _, err := cli.WriteVersioned(1, 5, []byte("imposter!")); err == nil {
		t.Fatal("conflicting equal-tag write was acked")
	}
	ver, data, err := cli.ReadVersioned(1)
	if err != nil || ver != 5 || string(data) != "canonical" {
		t.Fatalf("after conflict: ver=%d data=%q err=%v", ver, data, err)
	}
}

// TestAppendLogAtGuard covers the four offset cases: plain append,
// idempotent duplicate, divergent-tail heal, and behind.
func TestAppendLogAtGuard(t *testing.T) {
	srv, cli := newVersionedPair(t)

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
	srv, _ := newVersionedPair(t)

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

// TestReadLogRange: the server reads and returns only the requested
// window, shortened at the log's end.
func TestReadLogRange(t *testing.T) {
	_, cli := newVersionedPair(t)

	data := make([]byte, 1000)
	for i := range data {
		data[i] = byte(i)
	}
	if _, err := cli.AppendLogAt(6, 0, data); err != nil {
		t.Fatal(err)
	}
	got, err := cli.ReadLogRange(6, 100, 50)
	if err != nil || !bytes.Equal(got, data[100:150]) {
		t.Fatalf("mid window: %d bytes, err=%v", len(got), err)
	}
	got, err = cli.ReadLogRange(6, 900, 500)
	if err != nil || !bytes.Equal(got, data[900:]) {
		t.Fatalf("tail window: %d bytes, err=%v", len(got), err)
	}
	if got, err = cli.ReadLogRange(6, 1000, 10); err != nil || len(got) != 0 {
		t.Fatalf("empty window at end: %d bytes, err=%v", len(got), err)
	}
}

// TestReadLogRangeCopiesOnlyTheRange: a 64-byte window at the head of a
// 32 MiB log costs the server a 64-byte copy, not a copy of the whole
// tail behind it (which made replstore's chunked log repair O(L²)). The
// count is every byte the process allocates across the call, server and
// client together.
func TestReadLogRangeCopiesOnlyTheRange(t *testing.T) {
	srv, cli := newVersionedPair(t)
	dev, err := srv.Log(6)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dev.Append(make([]byte, 32<<20)); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.ReadLogRange(6, 0, 64); err != nil { // warm the connection
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, err := cli.ReadLogRange(6, 0, 64)
	runtime.ReadMemStats(&after)
	if err != nil || len(got) != 64 {
		t.Fatalf("range read: %d bytes, err=%v", len(got), err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("a 64-byte range read allocated %d bytes", alloc)
	}
}

// TestViewOps: epoch-guarded view installation.
func TestViewOps(t *testing.T) {
	srv, cli := newVersionedPair(t)

	if v, err := cli.GetView(); err != nil || v.Epoch != 0 {
		t.Fatalf("initial view: %+v, %v", v, err)
	}
	v1 := View{Epoch: 1, Members: []string{"a:1", "b:2", "c:3"}}
	cur, err := cli.SetView(v1)
	if err != nil || cur.Epoch != 1 || len(cur.Members) != 3 {
		t.Fatalf("set view: %+v, %v", cur, err)
	}
	// A stale installer learns the newer view instead of regressing it.
	cur, err = cli.SetView(View{Epoch: 1, Members: []string{"x:9"}})
	if err != nil || cur.Epoch != 1 || cur.Members[0] != "a:1" {
		t.Fatalf("stale set view: %+v, %v", cur, err)
	}
	v2 := View{Epoch: 2, Members: []string{"a:1", "b:2", "d:4"}}
	if cur, err = cli.SetView(v2); err != nil || cur.Epoch != 2 {
		t.Fatalf("advance view: %+v, %v", cur, err)
	}
	sv, err := srv.CurrentView()
	if err != nil || sv.Epoch != 2 || !sv.Contains("d:4") {
		t.Fatalf("server view: %+v, %v", sv, err)
	}
	if sv.Majority() != 2 {
		t.Fatalf("majority of 3 = %d", sv.Majority())
	}
}

// TestLogStat: all log sizes in one round trip.
func TestLogStat(t *testing.T) {
	_, cli := newVersionedPair(t)
	if _, err := cli.AppendLogAt(1, 0, []byte("aaaa")); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.AppendLogAt(2, 0, []byte("bb")); err != nil {
		t.Fatal(err)
	}
	stat, err := cli.LogStat()
	if err != nil {
		t.Fatal(err)
	}
	if len(stat) != 2 || stat[1] != 4 || stat[2] != 2 {
		t.Fatalf("log stat: %v", stat)
	}
}

// TestClientLatencyHistograms: the per-op read/write/dial histograms
// are populated through Stats().
func TestClientLatencyHistograms(t *testing.T) {
	_, cli := newVersionedPair(t)
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

// TestVersionedStateSurvivesRestart: version tags and the view are
// persisted through the data store, so a replica restarted on the same
// images (a disk that survived) still proves freshness correctly.
func TestVersionedStateSurvivesRestart(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	data := srv.Data()
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.WriteVersioned(7, 9, []byte("persisted")); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.SetView(View{Epoch: 4, Members: []string{"m:1"}}); err != nil {
		t.Fatal(err)
	}
	cli.Close()
	srv.Close()

	srv2, err := NewServer("127.0.0.1:0", ServerOptions{Data: data})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	cli2, err := Dial(srv2.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli2.Close()
	ver, img, err := cli2.ReadVersioned(7)
	if err != nil || ver != 9 || string(img) != "persisted" {
		t.Fatalf("after restart: ver=%d img=%q err=%v", ver, img, err)
	}
	v, err := cli2.GetView()
	if err != nil || v.Epoch != 4 {
		t.Fatalf("view after restart: %+v, %v", v, err)
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
