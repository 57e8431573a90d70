package merge_test

import (
	"bytes"
	"errors"
	"math/rand"
	"strconv"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"lbc/internal/coherency"
	"lbc/internal/merge"
	"lbc/internal/netproto"
	"lbc/internal/rvm"
	"lbc/internal/wal"
)

func rec(node uint32, txSeq uint64, locks []wal.LockRec, off uint64, data string) *wal.TxRecord {
	return &wal.TxRecord{
		Node: node, TxSeq: txSeq, Locks: locks,
		Ranges: []wal.RangeRec{{Region: 1, Off: off, Data: []byte(data)}},
	}
}

func lk(id uint32, seq uint64, wrote bool) wal.LockRec {
	return wal.LockRec{LockID: id, Seq: seq, Wrote: wrote}
}

func devFrom(recs ...*wal.TxRecord) wal.Device {
	d := wal.NewMemDevice()
	var buf []byte
	for _, r := range recs {
		buf = wal.AppendStandard(buf[:0], r)
		d.Append(buf)
	}
	return d
}

func TestMergeInterleavedLocks(t *testing.T) {
	// Node 1 wrote at lock seqs 1 and 3; node 2 at seq 2.
	log1 := devFrom(
		rec(1, 1, []wal.LockRec{lk(7, 1, true)}, 0, "a"),
		rec(1, 2, []wal.LockRec{lk(7, 3, true)}, 0, "c"),
	)
	log2 := devFrom(
		rec(2, 1, []wal.LockRec{lk(7, 2, true)}, 0, "b"),
	)
	out, err := merge.Merge(log1, log2)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("merged %d records", len(out))
	}
	var got string
	for _, tx := range out {
		got += string(tx.Ranges[0].Data)
	}
	if got != "abc" {
		t.Fatalf("merged order = %q, want abc", got)
	}
}

func TestMergeSeqGapsFromAborts(t *testing.T) {
	// Seq 2 was consumed by an aborted acquire and appears in no log;
	// the merge must not stall.
	log1 := devFrom(rec(1, 1, []wal.LockRec{lk(7, 1, true)}, 0, "a"))
	log2 := devFrom(rec(2, 1, []wal.LockRec{lk(7, 3, true)}, 0, "b"))
	out, err := merge.Merge(log1, log2)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || string(out[0].Ranges[0].Data) != "a" {
		t.Fatalf("out = %v", out)
	}
}

func TestMergeIndependentLocksDeterministic(t *testing.T) {
	// No shared locks: tie-break by (node, txSeq) must be stable.
	log1 := devFrom(
		rec(1, 1, []wal.LockRec{lk(1, 1, true)}, 0, "x"),
		rec(1, 2, []wal.LockRec{lk(1, 2, true)}, 0, "y"),
	)
	log2 := devFrom(rec(2, 1, []wal.LockRec{lk(2, 1, true)}, 8, "z"))
	a, err := merge.Merge(log1, log2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := merge.Merge(log2, log1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Node != b[i].Node || a[i].TxSeq != b[i].TxSeq {
			t.Fatalf("merge not input-order independent at %d", i)
		}
	}
}

func TestMergeMultiLockTransaction(t *testing.T) {
	// tx B holds locks 1 and 2; it must come after A (lock 1) and
	// before C (lock 2).
	logA := devFrom(rec(1, 1, []wal.LockRec{lk(1, 1, true)}, 0, "A"))
	logB := devFrom(rec(2, 1, []wal.LockRec{lk(1, 2, true), lk(2, 1, true)}, 0, "B"))
	logC := devFrom(rec(3, 1, []wal.LockRec{lk(2, 2, true)}, 0, "C"))
	out, err := merge.Merge(logA, logB, logC)
	if err != nil {
		t.Fatal(err)
	}
	var got string
	for _, tx := range out {
		got += string(tx.Ranges[0].Data)
	}
	if got != "ABC" {
		t.Fatalf("order = %q", got)
	}
}

func TestMergeDetectsDuplicateSeq(t *testing.T) {
	log1 := devFrom(rec(1, 1, []wal.LockRec{lk(7, 1, true)}, 0, "a"))
	log2 := devFrom(rec(2, 1, []wal.LockRec{lk(7, 1, true)}, 0, "b"))
	if _, err := merge.Merge(log1, log2); err == nil {
		t.Fatal("duplicate lock sequence not detected")
	}
}

func TestMergeDetectsCycle(t *testing.T) {
	// A before B on lock 1, B before A on lock 2: impossible under
	// 2PL, must be reported.
	a := rec(1, 1, []wal.LockRec{lk(1, 1, true), lk(2, 2, true)}, 0, "a")
	b := rec(2, 1, []wal.LockRec{lk(1, 2, true), lk(2, 1, true)}, 0, "b")
	if _, err := merge.Order([]*wal.TxRecord{a, b}); err == nil {
		t.Fatal("cycle not detected")
	}
}

// specOrder is the sequential specification of merge.Order: collapse
// repeated (node, TxSeq) identities to their first copy, then repeatedly
// emit the smallest (node, TxSeq) record all of whose locks' lower-Seq
// holders are already out. Quadratic and obviously right.
func specOrder(in []*wal.TxRecord) ([]*wal.TxRecord, error) {
	var recs []*wal.TxRecord
	seen := map[[2]uint64]bool{}
	for _, r := range in {
		if id := [2]uint64{uint64(r.Node), r.TxSeq}; !seen[id] {
			seen[id] = true
			recs = append(recs, r)
		}
	}
	held := map[[2]uint64]bool{} // (lock, seq)
	for _, r := range recs {
		for _, l := range r.Locks {
			k := [2]uint64{uint64(l.LockID), l.Seq}
			if held[k] {
				return nil, errors.New("duplicate lock sequence")
			}
			held[k] = true
		}
	}
	done := make([]bool, len(recs))
	blocked := func(i int) bool {
		for _, l := range recs[i].Locks {
			for j, o := range recs {
				for _, ol := range o.Locks {
					if !done[j] && j != i && ol.LockID == l.LockID && ol.Seq < l.Seq {
						return true
					}
				}
			}
		}
		return false
	}
	var out []*wal.TxRecord
	for len(out) < len(recs) {
		best := -1
		for i, r := range recs {
			if !done[i] && !blocked(i) && (best < 0 || r.Node < recs[best].Node ||
				r.Node == recs[best].Node && r.TxSeq < recs[best].TxSeq) {
				best = i
			}
		}
		if best < 0 {
			return nil, errors.New("ordering cycle")
		}
		done[best] = true
		out = append(out, recs[best])
	}
	return out, nil
}

// randomRecords plays a serial history on 1–5 nodes (0–3 distinct locks
// per record, so some are lock-free; per-lock Seqs rise with gaps), then
// adds copies of some records (same identity, new pointer: whichever
// comes first must win) and shuffles. With corrupt set it also plants a
// duplicate Seq or a two-record cycle when it can.
func randomRecords(r *rand.Rand, corrupt bool) []*wal.TxRecord {
	nodes, locks := 1+r.Intn(5), 1+r.Intn(6)
	txSeq := make([]uint64, nodes)
	lockSeq := make([]uint64, locks)
	var recs []*wal.TxRecord
	for k := r.Intn(40); k > 0; k-- {
		node := r.Intn(nodes)
		txSeq[node]++
		rec := &wal.TxRecord{Node: uint32(node + 1), TxSeq: txSeq[node]}
		for _, l := range r.Perm(locks)[:r.Intn(min(3, locks)+1)] {
			lockSeq[l] += 1 + uint64(r.Intn(2))
			rec.Locks = append(rec.Locks, wal.LockRec{LockID: uint32(l), Seq: lockSeq[l], Wrote: r.Intn(2) == 0})
		}
		recs = append(recs, rec)
	}
	if corrupt {
		var held []*wal.TxRecord
		for _, rec := range recs {
			if len(rec.Locks) > 0 {
				held = append(held, rec)
			}
		}
		if len(held) >= 2 {
			a, b := held[r.Intn(len(held))], held[r.Intn(len(held))]
			if a != b && r.Intn(2) == 0 {
				// Cycle: b precedes a on lock 1000, a precedes b on 1001.
				a.Locks = append(a.Locks, wal.LockRec{LockID: 1000, Seq: 2})
				b.Locks = append(b.Locks, wal.LockRec{LockID: 1000, Seq: 1})
				a.Locks = append(a.Locks, wal.LockRec{LockID: 1001, Seq: 1})
				b.Locks = append(b.Locks, wal.LockRec{LockID: 1001, Seq: 2})
			} else if a != b {
				b.Locks = append(b.Locks, wal.LockRec{LockID: a.Locks[0].LockID, Seq: a.Locks[0].Seq})
			}
		}
	}
	for k := r.Intn(4); k > 0 && len(recs) > 0; k-- {
		cp := *recs[r.Intn(len(recs))]
		recs = append(recs, &cp)
	}
	r.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
	return recs
}

// TestOrderMatchesSpecification checks merge.Order against specOrder on
// random record sets: the same records in the same order, or an error
// from both.
func TestOrderMatchesSpecification(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var valid, failed int
	for iter := 0; iter < 3000; iter++ {
		in := randomRecords(r, iter%3 == 0)
		want, werr := specOrder(in)
		got, gerr := merge.Order(in)
		if (werr != nil) != (gerr != nil) {
			t.Fatalf("iter %d: spec err %v, Order err %v", iter, werr, gerr)
		}
		if werr != nil {
			failed++
			continue
		}
		valid++
		if len(got) != len(want) {
			t.Fatalf("iter %d: Order emitted %d records, spec %d", iter, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("iter %d: position %d is %d/%d, spec has %d/%d",
					iter, i, got[i].Node, got[i].TxSeq, want[i].Node, want[i].TxSeq)
			}
		}
	}
	if valid < 1000 || failed < 300 {
		t.Fatalf("generator too narrow: %d ordered sets, %d rejected", valid, failed)
	}
}

// BenchmarkOrder merges a restart-sized catch-up: 3 nodes, every other
// record lock-free, the rest spread over 256 locks, input grouped per
// node log as CatchUp reads it. On a 2-core Xeon host, with the ready
// list re-sorted on every push (O(N·R)), it took 1.7 / 20 / 215 / 2955 ms
// at 1.5k / 6k / 24k / 96k records; with the ready heap, 0.33 / 1.4 /
// 7.4 / 34 ms.
func BenchmarkOrder(b *testing.B) {
	for _, n := range []int{1500, 6000, 24000, 96000} {
		r := rand.New(rand.NewSource(int64(n)))
		perNode := make([][]*wal.TxRecord, 3)
		lockSeq := make([]uint64, 256)
		for k := 0; k < n; k++ {
			node := k % 3
			rec := &wal.TxRecord{Node: uint32(node + 1), TxSeq: uint64(len(perNode[node]) + 1)}
			if k%2 == 0 {
				l := r.Intn(len(lockSeq))
				lockSeq[l]++
				rec.Locks = []wal.LockRec{{LockID: uint32(l), Seq: lockSeq[l], Wrote: true}}
			}
			perNode[node] = append(perNode[node], rec)
		}
		var in []*wal.TxRecord
		for _, recs := range perNode {
			in = append(in, recs...)
		}
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := merge.Order(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestMergeToProducesRecoverableLog(t *testing.T) {
	log1 := devFrom(
		rec(1, 1, []wal.LockRec{lk(7, 1, true)}, 0, "old value"),
	)
	log2 := devFrom(
		rec(2, 1, []wal.LockRec{lk(7, 2, true)}, 0, "new value"),
	)
	merged := wal.NewMemDevice()
	n, err := merge.MergeTo(merged, log1, log2)
	if err != nil || n != 2 {
		t.Fatalf("MergeTo: %d, %v", n, err)
	}
	data := rvm.NewMemStore()
	if _, err := rvm.Recover(merged, data, rvm.RecoverOptions{}); err != nil {
		t.Fatal(err)
	}
	img, _ := data.LoadRegion(1)
	if string(img[:9]) != "new value" {
		t.Fatalf("recovered image = %q", img[:9])
	}
}

func TestMergeEmptyInputs(t *testing.T) {
	out, err := merge.Merge(wal.NewMemDevice(), wal.NewMemDevice())
	if err != nil || len(out) != 0 {
		t.Fatalf("out=%v err=%v", out, err)
	}
}

// TestPropertyMergedRecoveryMatchesCoherentImage is the paper's
// end-to-end recoverability claim: running distributed transactions,
// merging the per-node logs, and replaying them into the permanent
// image must reproduce exactly the state the coherent caches converged
// to (§3.4).
func TestPropertyMergedRecoveryMatchesCoherentImage(t *testing.T) {
	f := func(seed int64) bool {
		const (
			kNodes = 3
			kLocks = 3
			segLen = 128
		)
		hub := netproto.NewHub()
		ids := []netproto.NodeID{1, 2, 3}
		var nodes []*coherency.Node
		var logs []wal.Device
		for _, id := range ids {
			log := wal.NewMemDevice()
			logs = append(logs, log)
			r, _ := rvm.Open(rvm.Options{Node: uint32(id), Log: log})
			n, err := coherency.New(coherency.Options{
				RVM: r, Transport: hub.Endpoint(id), Nodes: ids,
			})
			if err != nil {
				t.Log(err)
				return false
			}
			defer n.Close()
			nodes = append(nodes, n)
		}
		for _, n := range nodes {
			if _, err := n.MapRegion(1, kLocks*segLen); err != nil {
				t.Log(err)
				return false
			}
			for l := uint32(0); l < kLocks; l++ {
				n.AddSegment(coherency.Segment{LockID: l, Region: 1,
					Off: uint64(l) * segLen, Len: segLen})
			}
		}
		for _, n := range nodes {
			if err := n.WaitPeers(1, 2, 5*time.Second); err != nil {
				t.Log(err)
				return false
			}
		}

		var wg sync.WaitGroup
		for i := range nodes {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				r := rand.New(rand.NewSource(seed + int64(i)))
				for k := 0; k < 15; k++ {
					lock := uint32(r.Intn(kLocks))
					tx := nodes[i].Begin(rvm.NoRestore)
					if err := tx.Acquire(lock); err != nil {
						t.Error(err)
						return
					}
					off := uint64(lock)*segLen + uint64(r.Intn(segLen-8))
					data := make([]byte, r.Intn(7)+1)
					r.Read(data)
					tx.Write(nodes[i].RVM().Region(1), off, data)
					if _, err := tx.Commit(rvm.NoFlush); err != nil {
						t.Error(err)
						return
					}
				}
			}(i)
		}
		wg.Wait()
		// Quiesce all nodes.
		for _, n := range nodes {
			for l := uint32(0); l < kLocks; l++ {
				tx := n.Begin(rvm.NoRestore)
				if err := tx.Acquire(l); err != nil {
					t.Error(err)
					return false
				}
				tx.Commit(rvm.NoFlush)
			}
		}
		want := append([]byte(nil), nodes[0].RVM().Region(1).Bytes()...)

		// Merge the three logs and recover into a fresh store.
		merged := wal.NewMemDevice()
		if _, err := merge.MergeTo(merged, logs...); err != nil {
			t.Log(err)
			return false
		}
		data := rvm.NewMemStore()
		data.StoreRegion(1, make([]byte, kLocks*segLen))
		if _, err := rvm.Recover(merged, data, rvm.RecoverOptions{}); err != nil {
			t.Log(err)
			return false
		}
		img, _ := data.LoadRegion(1)
		return bytes.Equal(img, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}
