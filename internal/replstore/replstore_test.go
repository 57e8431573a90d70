package replstore_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"lbc/internal/metrics"
	"lbc/internal/replstore"
	"lbc/internal/store"
	"lbc/internal/wal"
)

// startReplicas brings up n empty storage servers.
func startReplicas(t *testing.T, n int) ([]*store.Server, []string) {
	t.Helper()
	srvs := make([]*store.Server, n)
	addrs := make([]string, n)
	for i := range srvs {
		srv, err := store.NewServer("127.0.0.1:0", store.ServerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		srvs[i] = srv
		addrs[i] = srv.Addr()
	}
	return srvs, addrs
}

func dialQuorum(t *testing.T, addrs []string) *replstore.Client {
	t.Helper()
	if err := replstore.Bootstrap(addrs); err != nil {
		t.Fatal(err)
	}
	c, err := replstore.DialView(addrs, replstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestQuorumRegionRoundTrip: versioned writes reach a majority and
// reads validate freshness, with the fast path firing whenever the
// preferred replica's answer is part of the quorum.
func TestQuorumRegionRoundTrip(t *testing.T) {
	srvs, addrs := startReplicas(t, 3)
	c := dialQuorum(t, addrs)

	for i := uint32(1); i <= 5; i++ {
		img := []byte(fmt.Sprintf("region-%d-v1", i))
		if err := c.StoreRegion(i, img); err != nil {
			t.Fatalf("store region %d: %v", i, err)
		}
	}
	if err := c.StoreRegion(3, []byte("region-3-v2")); err != nil {
		t.Fatal(err)
	}
	got, err := c.LoadRegion(3)
	if err != nil || string(got) != "region-3-v2" {
		t.Fatalf("load: %q, %v", got, err)
	}
	ids, err := c.Regions()
	if err != nil || len(ids) != 5 {
		t.Fatalf("regions: %v, %v", ids, err)
	}
	st := c.Stats()
	if st.Counter(metrics.CtrStoreQuorumWrites) == 0 || st.Counter(metrics.CtrStoreQuorumReads) == 0 {
		t.Fatalf("quorum counters not recorded: %v", st.Counters())
	}

	// A quorum read returns at the first majority, and on a healthy
	// quorum the preferred replica's full image usually loses that race
	// to the two version probes. With one of the other replicas down,
	// every majority holds the preferred replica's answer — and, the
	// straggler writes having landed, at the newest version.
	c.Quiesce()
	members := c.View().Members
	pref := members[3%len(members)]
	for i, addr := range addrs {
		if addr != pref {
			srvs[i].Close()
			break
		}
	}
	fast := st.Counter(metrics.CtrStoreReadFast)
	got, err = c.LoadRegion(3)
	if err != nil || string(got) != "region-3-v2" {
		t.Fatalf("load with a replica down: %q, %v", got, err)
	}
	if st.Counter(metrics.CtrStoreReadFast) != fast+1 {
		t.Fatal("read whose quorum held the preferred replica's fresh answer did not take the fast path")
	}
}

// TestQuorumSurvivesMinorityDeath: with one of three replicas dead,
// writes and reads keep committing through the surviving majority, and
// no acknowledged write is lost.
func TestQuorumSurvivesMinorityDeath(t *testing.T) {
	srvs, addrs := startReplicas(t, 3)
	c := dialQuorum(t, addrs)

	dev := c.LogDevice(7)
	var want []byte
	appendRec := func(seq uint64) {
		t.Helper()
		rec := &wal.TxRecord{Node: 7, TxSeq: seq,
			Ranges: []wal.RangeRec{{Region: 1, Off: seq * 8, Data: []byte("payload!")}}}
		buf := wal.AppendStandard(nil, rec)
		if _, err := dev.Append(buf); err != nil {
			t.Fatalf("append %d: %v", seq, err)
		}
		want = append(want, buf...)
	}
	for seq := uint64(1); seq <= 5; seq++ {
		appendRec(seq)
	}
	if err := c.StoreRegion(1, []byte("before-death")); err != nil {
		t.Fatal(err)
	}

	srvs[0].Close() // kill a replica mid-stream

	for seq := uint64(6); seq <= 10; seq++ {
		appendRec(seq)
	}
	if err := c.StoreRegion(1, []byte("after-death")); err != nil {
		t.Fatal(err)
	}
	got, err := c.LoadRegion(1)
	if err != nil || string(got) != "after-death" {
		t.Fatalf("load after death: %q, %v", got, err)
	}

	// Every acknowledged append must be readable through the quorum.
	rc, err := c.LogDevice(7).Open(0)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(rc); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("log content diverged: got %d bytes, want %d", buf.Len(), len(want))
	}
}

// TestConcurrentWritersNeverShareATag: two quorum clients hammering
// the same region must never leave replicas holding different data
// under the same version tag — tags are writer-unique, so a tag maps
// to exactly one payload cluster-wide even when racing writers land on
// overlapping majority subsets.
func TestConcurrentWritersNeverShareATag(t *testing.T) {
	_, addrs := startReplicas(t, 3)
	c1 := dialQuorum(t, addrs)
	c2, err := replstore.DialView(addrs, replstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c2.Close() })

	var wg sync.WaitGroup
	for i, c := range []*replstore.Client{c1, c2} {
		wg.Add(1)
		go func(i int, c *replstore.Client) {
			defer wg.Done()
			for r := 0; r < 25; r++ {
				// A write may legitimately lose the version race and
				// error; silent divergence is what the test hunts.
				_ = c.StoreRegion(1, []byte(fmt.Sprintf("writer-%d-round-%d", i, r)))
			}
		}(i, c)
	}
	wg.Wait()
	c1.Quiesce()
	c2.Quiesce()

	byTag := map[uint64][]byte{}
	for i, a := range addrs {
		sc, err := store.Dial(a)
		if err != nil {
			t.Fatal(err)
		}
		ver, data, err := sc.ReadVersioned(1)
		sc.Close()
		if err != nil {
			t.Fatalf("replica %d: %v", i, err)
		}
		if prev, ok := byTag[ver]; ok && !bytes.Equal(prev, data) {
			t.Fatalf("replicas diverge under tag %d: %q vs %q", ver, prev, data)
		}
		byTag[ver] = data
	}
	// A quorum read must settle on a single (tag, data) pair.
	if _, err := c1.LoadRegion(1); err != nil {
		t.Fatal(err)
	}
}

// TestReconfigureAddReplica: a fresh replica joins via snapshot
// catch-up and ends digest-identical with the original members.
func TestReconfigureAddReplica(t *testing.T) {
	_, addrs := startReplicas(t, 3)
	c := dialQuorum(t, addrs)

	dev := c.LogDevice(9)
	for seq := uint64(1); seq <= 8; seq++ {
		rec := &wal.TxRecord{Node: 9, TxSeq: seq,
			Ranges: []wal.RangeRec{{Region: 2, Off: seq * 4, Data: []byte("abcd")}}}
		if _, err := dev.Append(wal.AppendStandard(nil, rec)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.StoreRegion(2, []byte("seeded")); err != nil {
		t.Fatal(err)
	}

	joiner, err := store.NewServer("127.0.0.1:0", store.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { joiner.Close() })

	if err := c.AddReplica(joiner.Addr()); err != nil {
		t.Fatalf("add replica: %v", err)
	}
	v := c.View()
	if v.Epoch != 2 || len(v.Members) != 4 {
		t.Fatalf("view after add: %+v", v)
	}
	jv, err := joiner.CurrentView()
	if err != nil || jv.Epoch != 2 {
		t.Fatalf("joiner view: %+v, %v", jv, err)
	}
	c.Quiesce()
	digests, err := c.VerifyReplicas()
	if err != nil {
		t.Fatal(err)
	}
	if len(digests) != 4 {
		t.Fatalf("digests: %v", digests)
	}
	var first uint64
	for _, d := range digests {
		if first == 0 {
			first = d
		} else if d != first {
			t.Fatalf("replica digests diverge after catch-up: %v", digests)
		}
	}
}

// TestReplaceDeadReplica: the full failover story — a replica dies,
// commits continue, a replacement catches up and takes its seat in a
// single view change, and the old member is out.
func TestReplaceDeadReplica(t *testing.T) {
	srvs, addrs := startReplicas(t, 3)
	c := dialQuorum(t, addrs)

	dev := c.LogDevice(4)
	for seq := uint64(1); seq <= 4; seq++ {
		rec := &wal.TxRecord{Node: 4, TxSeq: seq,
			Ranges: []wal.RangeRec{{Region: 3, Off: seq, Data: []byte("x")}}}
		if _, err := dev.Append(wal.AppendStandard(nil, rec)); err != nil {
			t.Fatal(err)
		}
	}
	srvs[2].Close()
	for seq := uint64(5); seq <= 8; seq++ {
		rec := &wal.TxRecord{Node: 4, TxSeq: seq,
			Ranges: []wal.RangeRec{{Region: 3, Off: seq, Data: []byte("x")}}}
		if _, err := dev.Append(wal.AppendStandard(nil, rec)); err != nil {
			t.Fatalf("append with dead minority: %v", err)
		}
	}

	fresh, err := store.NewServer("127.0.0.1:0", store.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fresh.Close() })
	if err := c.ReplaceReplica(addrs[2], fresh.Addr()); err != nil {
		t.Fatalf("replace: %v", err)
	}
	v := c.View()
	if v.Epoch != 2 || len(v.Members) != 3 || v.Contains(addrs[2]) || !v.Contains(fresh.Addr()) {
		t.Fatalf("view after replace: %+v", v)
	}
	c.Quiesce()
	digests, err := c.VerifyReplicas()
	if err != nil {
		t.Fatal(err)
	}
	var first uint64
	seen := 0
	for _, d := range digests {
		if seen == 0 {
			first = d
		} else if d != first {
			t.Fatalf("digests diverge after replacement: %v", digests)
		}
		seen++
	}
	if seen != 3 {
		t.Fatalf("expected 3 replica digests, got %d", seen)
	}

	// All 8 acknowledged records must survive on the new quorum.
	recs, err := wal.ReadDevice(c.LogDevice(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 8 {
		t.Fatalf("acknowledged records lost: got %d, want 8", len(recs))
	}
}

// TestDialViewRequiresBootstrap pins the no-view error.
func TestDialViewRequiresBootstrap(t *testing.T) {
	_, addrs := startReplicas(t, 2)
	if _, err := replstore.DialView(addrs, replstore.Options{}); err == nil {
		t.Fatal("DialView succeeded against uninitialized replicas")
	}
}
