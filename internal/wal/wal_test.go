package wal

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"
)

func sampleTx() *TxRecord {
	return &TxRecord{
		Node:  3,
		TxSeq: 42,
		Locks: []LockRec{
			{LockID: 7, Seq: 9, PrevWriteSeq: 5, Wrote: true},
			{LockID: 8, Seq: 2, PrevWriteSeq: 0, Wrote: false},
		},
		Ranges: []RangeRec{
			{Region: 1, Off: 100, Data: []byte("hello")},
			{Region: 1, Off: 300, Data: []byte("world!")},
			{Region: 2, Off: 50, Data: bytes.Repeat([]byte{0xAB}, 300)},
		},
	}
}

func txEqual(a, b *TxRecord) bool {
	if a.Node != b.Node || a.TxSeq != b.TxSeq || a.Checkpoint != b.Checkpoint {
		return false
	}
	if len(a.Locks) != len(b.Locks) || len(a.Ranges) != len(b.Ranges) {
		return false
	}
	for i := range a.Locks {
		if a.Locks[i] != b.Locks[i] {
			return false
		}
	}
	for i := range a.Ranges {
		if a.Ranges[i].Region != b.Ranges[i].Region || a.Ranges[i].Off != b.Ranges[i].Off ||
			!bytes.Equal(a.Ranges[i].Data, b.Ranges[i].Data) {
			return false
		}
	}
	return true
}

func TestStandardRoundTrip(t *testing.T) {
	tx := sampleTx()
	enc := AppendStandard(nil, tx)
	if len(enc) != StandardSize(tx) {
		t.Fatalf("encoded %d bytes, StandardSize says %d", len(enc), StandardSize(tx))
	}
	got, n, err := DecodeStandard(enc)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(enc) {
		t.Fatalf("consumed %d of %d", n, len(enc))
	}
	if !txEqual(got, tx) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, tx)
	}
}

func TestStandardCheckpointFlag(t *testing.T) {
	tx := &TxRecord{Node: 1, TxSeq: 5, Checkpoint: true}
	enc := AppendStandard(nil, tx)
	got, _, err := DecodeStandard(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Checkpoint {
		t.Fatal("checkpoint flag lost")
	}
}

func TestStandardHeaderIs104Bytes(t *testing.T) {
	// The size gap between a 1-range and 0-range record must be exactly
	// header + data; this pins the RVM-compatible 104-byte header.
	empty := &TxRecord{Node: 1, TxSeq: 1}
	one := &TxRecord{Node: 1, TxSeq: 1, Ranges: []RangeRec{{Region: 1, Off: 0, Data: make([]byte, 8)}}}
	gap := StandardSize(one) - StandardSize(empty)
	if gap != StdRangeHeaderLen+8 {
		t.Fatalf("per-range overhead = %d, want %d", gap-8, StdRangeHeaderLen)
	}
}

func TestStandardDetectsCorruption(t *testing.T) {
	enc := AppendStandard(nil, sampleTx())
	for _, i := range []int{0, 10, 40, len(enc) - 1} {
		bad := append([]byte(nil), enc...)
		bad[i] ^= 0xFF
		if _, _, err := DecodeStandard(bad); err == nil {
			t.Fatalf("corruption at byte %d not detected", i)
		}
	}
}

func TestStandardTruncatedPrefix(t *testing.T) {
	enc := AppendStandard(nil, sampleTx())
	for _, n := range []int{0, 1, entryHeaderLen - 1, entryHeaderLen + 3, len(enc) - 1} {
		if _, _, err := DecodeStandard(enc[:n]); err != ErrTruncated {
			t.Fatalf("prefix len %d: err = %v, want ErrTruncated", n, err)
		}
	}
}

// mustCompress encodes tx with AppendCompressed, failing the test on
// overflow — for records known to fit the compressed limits.
func mustCompress(t testing.TB, tx *TxRecord) []byte {
	t.Helper()
	enc, err := AppendCompressed(nil, tx)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

func TestCompressedRoundTrip(t *testing.T) {
	tx := sampleTx()
	enc := mustCompress(t, tx)
	if len(enc) != CompressedSize(tx) {
		t.Fatalf("encoded %d bytes, CompressedSize says %d", len(enc), CompressedSize(tx))
	}
	got, err := DecodeCompressed(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !txEqual(got, tx) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, tx)
	}
}

func TestCompressedMinHeaderIsFourBytes(t *testing.T) {
	// Two nearby small ranges: the second must cost exactly 4 bytes of
	// header (flags + u16 delta + u8 size), the paper's minimum.
	tx := &TxRecord{
		Node: 1, TxSeq: 1,
		Ranges: []RangeRec{
			{Region: 1, Off: 0, Data: make([]byte, 8)},
			{Region: 1, Off: 200, Data: make([]byte, 8)},
		},
	}
	one := &TxRecord{Node: 1, TxSeq: 1, Ranges: tx.Ranges[:1]}
	gap := CompressedSize(tx) - CompressedSize(one)
	if gap != MinCompressedHeader+8 {
		t.Fatalf("subsequent-range cost = %d, want %d", gap, MinCompressedHeader+8)
	}
}

func TestCompressedHeaderBytes(t *testing.T) {
	tx := sampleTx()
	hdr := CompressedHeaderBytes(tx)
	total := CompressedSize(tx)
	fixed := 4 + 8 + 2 + len(tx.Locks)*cLockRecLen + 4
	if hdr+tx.DataBytes()+fixed != total {
		t.Fatalf("header accounting: hdr=%d data=%d fixed=%d total=%d",
			hdr, tx.DataBytes(), fixed, total)
	}
	if hdr < MinCompressedHeader*len(tx.Ranges) {
		t.Fatalf("header bytes %d below minimum", hdr)
	}
}

func TestCompressedLargeDelta(t *testing.T) {
	// Deltas beyond 24 bits force absolute addressing.
	tx := &TxRecord{
		Node: 1, TxSeq: 1,
		Ranges: []RangeRec{
			{Region: 1, Off: 0, Data: make([]byte, 4)},
			{Region: 1, Off: 1 << 30, Data: make([]byte, 4)},
		},
	}
	got, err := DecodeCompressed(mustCompress(t, tx))
	if err != nil {
		t.Fatal(err)
	}
	if !txEqual(got, tx) {
		t.Fatal("large-delta round trip failed")
	}
}

func TestCompressedOutOfOrderRanges(t *testing.T) {
	// Ranges not in ascending order (legal only via absolute encoding).
	tx := &TxRecord{
		Node: 1, TxSeq: 1,
		Ranges: []RangeRec{
			{Region: 1, Off: 5000, Data: make([]byte, 4)},
			{Region: 1, Off: 100, Data: make([]byte, 4)},
		},
	}
	got, err := DecodeCompressed(mustCompress(t, tx))
	if err != nil {
		t.Fatal(err)
	}
	if !txEqual(got, tx) {
		t.Fatal("out-of-order round trip failed")
	}
}

func TestCompressedSmallerThanStandard(t *testing.T) {
	tx := sampleTx()
	if c, s := CompressedSize(tx), StandardSize(tx); c >= s {
		t.Fatalf("compressed %d >= standard %d", c, s)
	}
}

func TestPropertyEncodingsRoundTrip(t *testing.T) {
	f := func(seed int64, nRanges, nLocks uint8) bool {
		r := rand.New(rand.NewSource(seed))
		tx := &TxRecord{Node: r.Uint32(), TxSeq: r.Uint64()}
		for i := 0; i < int(nLocks%8); i++ {
			tx.Locks = append(tx.Locks, LockRec{
				LockID: r.Uint32(), Seq: r.Uint64(), PrevWriteSeq: r.Uint64(), Wrote: r.Intn(2) == 0,
			})
		}
		off := uint64(0)
		for i := 0; i < int(nRanges%16); i++ {
			off += uint64(r.Intn(1 << 20))
			data := make([]byte, r.Intn(500)+1)
			r.Read(data)
			tx.Ranges = append(tx.Ranges, RangeRec{Region: uint32(r.Intn(3)), Off: off, Data: data})
			off += uint64(len(data))
		}
		std, _, err := DecodeStandard(AppendStandard(nil, tx))
		if err != nil || !txEqual(std, tx) {
			t.Logf("standard round trip failed: %v", err)
			return false
		}
		enc, err := AppendCompressed(nil, tx)
		if err != nil {
			t.Logf("compressed encode failed: %v", err)
			return false
		}
		cmp, err := DecodeCompressed(enc)
		if err != nil || !txEqual(cmp, tx) {
			t.Logf("compressed round trip failed: %v", err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestScannerMultipleRecords(t *testing.T) {
	var log []byte
	var want []*TxRecord
	for i := 0; i < 20; i++ {
		tx := &TxRecord{Node: 1, TxSeq: uint64(i),
			Ranges: []RangeRec{{Region: 1, Off: uint64(i * 100), Data: []byte{byte(i), 1, 2}}}}
		want = append(want, tx)
		log = AppendStandard(log, tx)
	}
	got, torn, _, err := ReadAll(bytes.NewReader(log), 0)
	if err != nil {
		t.Fatal(err)
	}
	if torn {
		t.Fatal("clean log reported torn")
	}
	if len(got) != len(want) {
		t.Fatalf("read %d records, want %d", len(got), len(want))
	}
	for i := range got {
		if !txEqual(got[i], want[i]) {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestScannerTornTail(t *testing.T) {
	var log []byte
	log = AppendStandard(log, &TxRecord{Node: 1, TxSeq: 1,
		Ranges: []RangeRec{{Region: 1, Off: 0, Data: []byte{1, 2, 3, 4}}}})
	goodLen := int64(len(log))
	log = AppendStandard(log, &TxRecord{Node: 1, TxSeq: 2,
		Ranges: []RangeRec{{Region: 1, Off: 8, Data: []byte{5, 6, 7, 8}}}})
	log = log[:goodLen+30] // crash mid-append

	got, torn, tornAt, err := ReadAll(bytes.NewReader(log), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].TxSeq != 1 {
		t.Fatalf("got %d records", len(got))
	}
	if !torn || tornAt != goodLen {
		t.Fatalf("torn=%v at %d, want true at %d", torn, tornAt, goodLen)
	}
}

func TestScannerCorruptMiddleStops(t *testing.T) {
	var log []byte
	log = AppendStandard(log, &TxRecord{Node: 1, TxSeq: 1})
	first := int64(len(log))
	log = AppendStandard(log, &TxRecord{Node: 1, TxSeq: 2})
	third := int64(len(log))
	log = AppendStandard(log, &TxRecord{Node: 1, TxSeq: 3})
	log[first+10] ^= 0xFF // corrupt second record

	// A sound record exists past the damage, so this is interior
	// corruption, not a clean torn tail.
	_, _, _, err := ReadAll(bytes.NewReader(log), 0)
	var ice *InteriorCorruptionError
	if !errors.As(err, &ice) {
		t.Fatalf("err = %v, want *InteriorCorruptionError", err)
	}
	if ice.Offset != first || ice.Resume != third {
		t.Fatalf("corruption at %d resume %d, want %d/%d",
			ice.Offset, ice.Resume, first, third)
	}
}

func testDevice(t *testing.T, dev Device) {
	t.Helper()
	off, err := dev.Append([]byte("abc"))
	if err != nil || off != 0 {
		t.Fatalf("append 1: off=%d err=%v", off, err)
	}
	off, err = dev.Append([]byte("defg"))
	if err != nil || off != 3 {
		t.Fatalf("append 2: off=%d err=%v", off, err)
	}
	if err := dev.Sync(); err != nil {
		t.Fatal(err)
	}
	if sz, _ := dev.Size(); sz != 7 {
		t.Fatalf("size = %d", sz)
	}
	rc, err := dev.Open(3)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(rc)
	rc.Close()
	if string(data) != "defg" {
		t.Fatalf("read %q", data)
	}
	if err := dev.Truncate(3); err != nil {
		t.Fatal(err)
	}
	if sz, _ := dev.Size(); sz != 3 {
		t.Fatalf("size after truncate = %d", sz)
	}
	if err := dev.Reset(); err != nil {
		t.Fatal(err)
	}
	if sz, _ := dev.Size(); sz != 0 {
		t.Fatalf("size after reset = %d", sz)
	}
}

func TestFileDevice(t *testing.T) {
	dev, err := OpenFileDevice(filepath.Join(t.TempDir(), "log"))
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	testDevice(t, dev)
}

func TestMemDevice(t *testing.T) {
	dev := NewMemDevice()
	testDevice(t, dev)
	if dev.Syncs() != 1 {
		t.Fatalf("syncs = %d", dev.Syncs())
	}
	if _, err := dev.Append([]byte("abcdefg")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if n, err := dev.ReadAt(buf, 1); n != 4 || err != nil || string(buf) != "bcde" {
		t.Fatalf("ReadAt(1) = %d %q %v", n, buf[:n], err)
	}
	if n, err := dev.ReadAt(buf, 5); n != 2 || err != io.EOF || string(buf[:n]) != "fg" {
		t.Fatalf("ReadAt(5) = %d %q %v, want the 2-byte tail and io.EOF", n, buf[:n], err)
	}
	if _, err := dev.ReadAt(buf, 8); err == nil {
		t.Fatal("ReadAt past the log end succeeded")
	}
}

func TestWriterCommit(t *testing.T) {
	dev := NewMemDevice()
	w := NewWriter(dev)
	tx1 := &TxRecord{Node: 1, TxSeq: 1, Ranges: []RangeRec{{Region: 1, Off: 0, Data: []byte{1}}}}
	tx2 := &TxRecord{Node: 1, TxSeq: 2, Ranges: []RangeRec{{Region: 1, Off: 8, Data: []byte{2}}}}
	if _, _, err := w.Commit(tx1, false); err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.Commit(tx2, true); err != nil {
		t.Fatal(err)
	}
	if dev.Syncs() != 1 {
		t.Fatalf("syncs = %d, want 1 (only flush-mode commit)", dev.Syncs())
	}
	if w.Entries() != 2 {
		t.Fatalf("entries = %d", w.Entries())
	}
	txs, err := ReadDevice(dev)
	if err != nil {
		t.Fatal(err)
	}
	if len(txs) != 2 || txs[0].TxSeq != 1 || txs[1].TxSeq != 2 {
		t.Fatalf("device scan = %d records", len(txs))
	}
	if w.Bytes() != int64(StandardSize(tx1)+StandardSize(tx2)) {
		t.Fatalf("bytes accounting off: %d", w.Bytes())
	}
}

func TestDataBytesAndWrote(t *testing.T) {
	tx := sampleTx()
	if tx.DataBytes() != 5+6+300 {
		t.Fatalf("DataBytes = %d", tx.DataBytes())
	}
	if !tx.Wrote() {
		t.Fatal("Wrote() = false")
	}
	ro := &TxRecord{Node: 1, TxSeq: 1, Locks: []LockRec{{LockID: 1, Seq: 1}}}
	if ro.Wrote() {
		t.Fatal("read-only tx reports Wrote")
	}
}

func BenchmarkAppendStandard(b *testing.B) {
	tx := sampleTx()
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = AppendStandard(buf[:0], tx)
	}
}

func BenchmarkAppendCompressed(b *testing.B) {
	tx := sampleTx()
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf, _ = AppendCompressed(buf[:0], tx)
	}
}

func BenchmarkDecodeCompressed(b *testing.B) {
	enc := mustCompress(b, sampleTx())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeCompressed(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func TestMemDeviceCrashUnsynced(t *testing.T) {
	d := NewMemDevice()
	d.Append([]byte("durable"))
	d.Sync()
	d.Append([]byte("volatile"))
	d.CrashUnsynced()
	if sz, _ := d.Size(); sz != 7 {
		t.Fatalf("size after crash = %d", sz)
	}
	// Truncating below the watermark moves the watermark too.
	d.Truncate(3)
	d.Append([]byte("xy"))
	d.CrashUnsynced()
	if sz, _ := d.Size(); sz != 3 {
		t.Fatalf("size = %d", sz)
	}
}

func TestScannerSkipsNothingAcrossFillBoundaries(t *testing.T) {
	// Records larger than the scanner's 64 KB read chunk must still
	// decode (the fill path compacts and extends the buffer).
	var log []byte
	big := make([]byte, 200<<10)
	for i := range big {
		big[i] = byte(i)
	}
	log = AppendStandard(log, &TxRecord{Node: 1, TxSeq: 1,
		Ranges: []RangeRec{{Region: 1, Off: 0, Data: big}}})
	log = AppendStandard(log, &TxRecord{Node: 1, TxSeq: 2,
		Ranges: []RangeRec{{Region: 1, Off: 0, Data: []byte("after")}}})
	got, torn, _, err := ReadAll(bytes.NewReader(log), 0)
	if err != nil || torn {
		t.Fatalf("err=%v torn=%v", err, torn)
	}
	if len(got) != 2 || len(got[0].Ranges[0].Data) != len(big) {
		t.Fatalf("got %d records", len(got))
	}
	if !bytes.Equal(got[0].Ranges[0].Data, big) {
		t.Fatal("large record corrupted across fill boundary")
	}
}

func TestCheckpointRecordsSkippedByRecoveryScan(t *testing.T) {
	var log []byte
	log = AppendStandard(log, &TxRecord{Node: 1, TxSeq: 1, Checkpoint: true})
	log = AppendStandard(log, &TxRecord{Node: 1, TxSeq: 2,
		Ranges: []RangeRec{{Region: 1, Off: 0, Data: []byte("real")}}})
	got, _, _, err := ReadAll(bytes.NewReader(log), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || !got[0].Checkpoint || got[1].Checkpoint {
		t.Fatalf("scan = %+v", got)
	}
}

func TestWriterConcurrentCommits(t *testing.T) {
	dev := NewMemDevice()
	w := NewWriter(dev)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				tx := &TxRecord{Node: uint32(g + 1), TxSeq: uint64(i + 1),
					Ranges: []RangeRec{{Region: 1, Off: uint64(i * 8), Data: []byte{byte(g), byte(i)}}}}
				if _, _, err := w.Commit(tx, false); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	txs, err := ReadDevice(dev)
	if err != nil {
		t.Fatal(err)
	}
	if len(txs) != 200 {
		t.Fatalf("read %d records", len(txs))
	}
	// No interleaved/corrupt records: per-sender sequences are intact.
	perNode := map[uint32]uint64{}
	for _, tx := range txs {
		if tx.TxSeq != perNode[tx.Node]+1 {
			t.Fatalf("node %d: seq %d after %d", tx.Node, tx.TxSeq, perNode[tx.Node])
		}
		perNode[tx.Node] = tx.TxSeq
	}
}

func TestCheckpointLSNRoundTrip(t *testing.T) {
	tx := &TxRecord{Node: 3, Checkpoint: true, CheckpointLSN: 0xDEADBEEF12}
	enc := AppendStandard(nil, tx)
	if len(enc) != StandardSize(tx) {
		t.Fatalf("encoded %d bytes, StandardSize says %d", len(enc), StandardSize(tx))
	}
	got, n, err := DecodeStandard(enc)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(enc) {
		t.Fatalf("consumed %d of %d", n, len(enc))
	}
	if !got.Checkpoint || got.CheckpointLSN != tx.CheckpointLSN {
		t.Fatalf("marker round trip: ckpt=%v lsn=%#x, want lsn=%#x",
			got.Checkpoint, got.CheckpointLSN, tx.CheckpointLSN)
	}
	// Non-marker records must not pay (or parse) the LSN trailer.
	plain := &TxRecord{Node: 1, TxSeq: 2,
		Ranges: []RangeRec{{Region: 1, Off: 0, Data: []byte("x")}}}
	if StandardSize(plain) != len(AppendStandard(nil, plain)) {
		t.Fatal("plain record size mismatch")
	}
}

func TestScannerPos(t *testing.T) {
	var log []byte
	recs := []*TxRecord{
		{Node: 1, TxSeq: 1, Ranges: []RangeRec{{Region: 1, Off: 0, Data: []byte("aa")}}},
		{Node: 1, Checkpoint: true, CheckpointLSN: 42},
		{Node: 1, TxSeq: 2, Ranges: []RangeRec{{Region: 1, Off: 8, Data: []byte("bb")}}},
	}
	var ends []int64
	for _, r := range recs {
		log = AppendStandard(log, r)
		ends = append(ends, int64(len(log)))
	}
	sc := NewScanner(bytes.NewReader(log), 0)
	for i := range recs {
		if _, err := sc.Next(); err != nil {
			t.Fatal(err)
		}
		if sc.Pos() != ends[i] {
			t.Fatalf("after record %d Pos()=%d, want %d", i, sc.Pos(), ends[i])
		}
	}
}

func TestMemDeviceTrimHead(t *testing.T) {
	d := NewMemDevice()
	if _, err := d.Append([]byte("headtail")); err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := d.TrimHead(4); err != nil {
		t.Fatal(err)
	}
	if got := string(d.Bytes()); got != "tail" {
		t.Fatalf("after trim: %q", got)
	}
	// Trimmed bytes stay durable: a crash must not lose the tail.
	d.CrashUnsynced()
	if got := string(d.Bytes()); got != "tail" {
		t.Fatalf("after crash: %q", got)
	}
	if err := d.TrimHead(100); err == nil {
		t.Fatal("trim beyond end must fail")
	}
}

func TestFileDeviceTrimHead(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	d, err := OpenFileDevice(path)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.Append([]byte("headtail")); err != nil {
		t.Fatal(err)
	}
	if err := d.TrimHead(4); err != nil {
		t.Fatal(err)
	}
	if sz, _ := d.Size(); sz != 4 {
		t.Fatalf("size after trim = %d", sz)
	}
	// The device keeps working through the swapped descriptor, and Open
	// reads the renamed file.
	if _, err := d.Append([]byte("+more")); err != nil {
		t.Fatal(err)
	}
	rc, err := d.Open(0)
	if err != nil {
		t.Fatal(err)
	}
	all, _ := io.ReadAll(rc)
	rc.Close()
	if string(all) != "tail+more" {
		t.Fatalf("log contents after trim+append: %q", all)
	}
	if _, err := os.Stat(path + ".trim"); !os.IsNotExist(err) {
		t.Fatalf("temp trim file left behind: %v", err)
	}
}
