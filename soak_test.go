package lbc

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"lbc/internal/chaos"
	"lbc/internal/membership"
	"lbc/internal/metrics"
	"lbc/internal/wal"
)

// TestSoakMixedWorkload drives everything at once: concurrent writers
// and aborters on several segments across TCP, an online coordinated
// checkpoint in the middle, and a final merge + recovery that must
// reproduce the converged image. This is the closest thing to a
// production afternoon the test suite has.
func TestSoakMixedWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test in -short mode")
	}
	const (
		kNodes = 3
		kLocks = 4
		segLen = 512
		rounds = 30
	)
	cluster, err := NewLocalCluster(kNodes, WithTCP())
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if err := cluster.MapAll(1, kLocks*segLen); err != nil {
		t.Fatal(err)
	}
	for l := 0; l < kLocks; l++ {
		cluster.AddSegmentAll(Segment{LockID: uint32(l), Region: 1,
			Off: uint64(l) * segLen, Len: segLen})
	}
	if err := cluster.Barrier(1); err != nil {
		t.Fatal(err)
	}

	phase := func() {
		var wg sync.WaitGroup
		for i := 0; i < kNodes; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(i)*7919 + 13))
				n := cluster.Node(i)
				reg := n.RVM().Region(1)
				for k := 0; k < rounds; k++ {
					lock := uint32(rng.Intn(kLocks))
					mode := NoRestore
					abort := rng.Intn(10) == 0
					if abort {
						mode = Restore
					}
					tx := n.Begin(mode)
					if err := tx.Acquire(lock); err != nil {
						t.Error(err)
						return
					}
					off := uint64(lock)*segLen + uint64(rng.Intn(segLen-16))
					data := make([]byte, rng.Intn(15)+1)
					rng.Read(data)
					if err := tx.Write(reg, off, data); err != nil {
						t.Error(err)
						return
					}
					if abort {
						if err := tx.Abort(); err != nil {
							t.Error(err)
							return
						}
					} else if _, err := tx.Commit(NoFlush); err != nil {
						t.Error(err)
						return
					}
				}
			}(i)
		}
		wg.Wait()
	}

	phase()

	// Mid-run online log trim: node 2 coordinates over every
	// registered segment lock.
	if err := cluster.Checkpoint(1, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < kNodes; i++ {
		if sz, _ := cluster.Log(i).Size(); sz != 0 {
			t.Fatalf("node %d log not trimmed mid-soak", i+1)
		}
	}

	phase()

	// Quiesce and compare all caches.
	for i := 0; i < kNodes; i++ {
		for l := 0; l < kLocks; l++ {
			tx := cluster.Node(i).Begin(NoRestore)
			if err := tx.Acquire(uint32(l)); err != nil {
				t.Fatal(err)
			}
			tx.Commit(NoFlush)
		}
	}
	base := cluster.Node(0).RVM().Region(1).Bytes()
	for i := 1; i < kNodes; i++ {
		if !bytes.Equal(base, cluster.Node(i).RVM().Region(1).Bytes()) {
			t.Fatalf("node %d diverged after soak", i+1)
		}
	}

	// Recovery: checkpointed image + merged post-checkpoint logs must
	// equal the converged caches.
	merged := wal.NewMemDevice()
	if _, err := MergeLogs(merged, cluster.Log(0), cluster.Log(1), cluster.Log(2)); err != nil {
		t.Fatal(err)
	}
	// The checkpoint went to node 2's data store.
	data := cluster.Node(1).RVM().Data()
	if _, err := Recover(merged, data, false); err != nil {
		t.Fatal(err)
	}
	img, err := data.LoadRegion(1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(img, base) {
		t.Fatal("checkpoint + merged-log recovery diverged from caches")
	}
}

// TestSoakScaleChurn is the 16-node soak of the sharded coherency
// plane: consistent-hash homes, dominant-writer migration, and
// interest-routed updates all running under the chaos injector while a
// node that just won several lock homes is killed, evicted by the
// survivors' detectors, and rejoined. Every cache must converge at the
// end — across the home moves, the override rollback at eviction, and
// the interest re-registration at rejoin.
func TestSoakScaleChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("scale churn soak in -short mode")
	}
	const (
		kNodes = 16
		kLocks = 32 // 2 per node, ownership lock%kNodes
		seed   = int64(9242)
		victim = 5 // index; dominates contended locks, then dies
	)
	inj := chaos.New(chaos.Config{
		Seed:        seed,
		DropProb:    0.03,
		DupProb:     0.03,
		ReorderProb: 0.03,
	})
	clk := membership.NewManualClock()
	c, err := NewLocalCluster(kNodes,
		WithStore(), WithChaos(inj), WithGroupCommit(),
		WithAcquireTimeout(30*time.Second),
		WithLockMigration(), WithInterestRouting(),
		WithMembership(MembershipOptions{
			SuspectAfter: 500 * time.Millisecond,
			EvictAfter:   3,
			Clock:        clk,
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.MapAll(chaosRegion, kLocks*chaosSegLen); err != nil {
		t.Fatal(err)
	}
	for l := 0; l < kLocks; l++ {
		c.AddSegmentAll(Segment{LockID: uint32(l), Region: chaosRegion,
			Off: uint64(l) * chaosSegLen, Len: chaosSegLen})
	}
	if err := c.Barrier(chaosRegion); err != nil {
		t.Fatal(err)
	}
	// A failed write explains itself: every node's view of the lock.
	write := func(w, round, l int) {
		t.Helper()
		if err := chaosWrite(c.Node(w), seed, round, l); err != nil {
			t.Fatalf("%v\n%s", err, lockDump(c, uint32(l)))
		}
	}

	// Phase A: every node writes its own locks — seeds interest and
	// spreads the tokens to their owners.
	round := 0
	for ; round < 2; round++ {
		for l := 0; l < kLocks; l++ {
			write(l%kNodes, round, l)
		}
	}

	// Phase B: the victim generates a 2x majority of the demand on the
	// first few locks (the interleaved owners keep the tokens bouncing,
	// which is what makes the demand visible to the homes).
	for end := round + 4; round < end; round++ {
		for l := 0; l < 4; l++ {
			for slot := 0; slot < 4; slot++ {
				w := victim
				switch slot {
				case 1:
					w = l % kNodes
				case 3:
					w = (l + 1) % kNodes
				}
				write(w, round, l)
			}
		}
	}
	migs := func() int64 {
		var n int64
		for i := 0; i < c.Size(); i++ {
			if !c.Down(i) {
				n += c.Node(i).Stats().Counter(metrics.CtrLockMigrations)
			}
		}
		return n
	}
	deadline := time.Now().Add(15 * time.Second)
	for migs() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no lock home migrated to the dominant writer")
		}
		time.Sleep(time.Millisecond)
	}

	// Take the contended tokens to the victim and kill it: the
	// survivors must recover the tokens and the migrated home authority.
	for l := 0; l < 4; l++ {
		write(victim, round, l)
	}
	round++
	if err := c.Kill(victim); err != nil {
		t.Fatal(err)
	}
	evictedEverywhere := func() bool {
		for i := 0; i < c.Size(); i++ {
			if c.Down(i) || i == victim {
				continue
			}
			if !c.Membership(i).Evicted(c.ids[victim]) {
				return false
			}
		}
		return true
	}
	for tick := 0; tick < 12 && !evictedEverywhere(); tick++ {
		clk.Advance(600 * time.Millisecond)
		c.TickMembership()
		if err := chaosAwaitAcks(c, 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.AwaitEvicted(victim, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.AwaitLiveTokens(20 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Phase C: survivors keep writing every lock, including the ones
	// whose migrated home just died and reverted to its birth home.
	for end := round + 2; round < end; round++ {
		for l := 0; l < kLocks; l++ {
			w := (round + l) % kNodes
			if w == victim {
				w = (w + 1) % kNodes
			}
			write(w, round, l)
		}
	}

	if err := c.Rejoin(victim); err != nil {
		t.Fatal(err)
	}

	// Phase D: full rotation, rejoined node included.
	for end := round + 2; round < end; round++ {
		for l := 0; l < kLocks; l++ {
			write((round+l)%kNodes, round, l)
		}
	}

	// Converge and compare every cache.
	if err := c.FlushChaos(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < kNodes; i++ {
		for l := 0; l < kLocks; l++ {
			tx := c.Node(i).Begin(NoRestore)
			if err := tx.Acquire(uint32(l)); err != nil {
				t.Fatalf("converge: lock %d on node %d: %v\n%s", l, i+1, err, lockDump(c, uint32(l)))
			}
			if err := tx.Abort(); err != nil {
				t.Fatal(err)
			}
		}
	}
	base := c.Node(0).RVM().Region(chaosRegion).Bytes()
	for i := 1; i < kNodes; i++ {
		if !bytes.Equal(base, c.Node(i).RVM().Region(chaosRegion).Bytes()) {
			t.Fatalf("node %d diverged after scale churn", i+1)
		}
	}
	if migs() == 0 {
		t.Fatal("migration counters vanished") // paranoia: counter survived churn
	}
	var compressed int64
	for i := 0; i < c.Size(); i++ {
		if !c.Down(i) {
			compressed += c.Node(i).Stats().Counter(metrics.CtrCompressedFrames)
		}
	}
	if compressed == 0 {
		t.Fatal("soak never shipped a compressed update frame")
	}
}

// lockDump renders every node's view of one lock from the public
// accessors: token counters and holder, manager routing and migration
// override, applied sequence, membership epoch and evicted peers.
func lockDump(c *Cluster, lockID uint32) string {
	var b strings.Builder
	for i := 0; i < c.Size(); i++ {
		n := c.Node(i)
		if n == nil {
			fmt.Fprintf(&b, "node %d: down\n", i+1)
			continue
		}
		lm := n.Locks()
		seq, lastWrite, have := lm.TokenState(lockID)
		fmt.Fprintf(&b, "node %d: token=%v seq=%d lastWrite=%d held=%v applied=%d manager=%d",
			i+1, have, seq, lastWrite, lm.Holding(lockID), lm.Applied(lockID), lm.ManagerOf(lockID))
		if home, ok := lm.MigratedHome(lockID); ok {
			fmt.Fprintf(&b, " migrated=%d", home)
		}
		if mon := c.Membership(i); mon != nil {
			fmt.Fprintf(&b, " epoch=%d", mon.Epoch())
			for j := 0; j < c.Size(); j++ {
				if j != i && mon.Evicted(c.ids[j]) {
					fmt.Fprintf(&b, " evicted=%d", j+1)
				}
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestSoakChaosSchedule runs the full chaos scenario suite back to
// back on consecutive seeds — a short deterministic soak of the fault
// paths: partition heal, crash/restart catch-up, storage failover.
// Each scenario asserts its own invariants; this test additionally
// pins reproducibility by replaying the first seed and comparing
// digests.
func TestSoakChaosSchedule(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak in -short mode")
	}
	const baseSeed = int64(7000)
	for _, sc := range ChaosScenarios() {
		var first *ChaosReport
		for r := int64(0); r < 3; r++ {
			rep, err := RunChaosScenario(sc, baseSeed+r)
			if err != nil {
				t.Fatal(err)
			}
			if r == 0 {
				first = rep
			}
		}
		replay, err := RunChaosScenario(sc, baseSeed)
		if err != nil {
			t.Fatal(err)
		}
		if replay.Digest != first.Digest {
			t.Fatalf("%s seed %d replay digest %016x != %016x",
				sc, baseSeed, replay.Digest, first.Digest)
		}
	}
}
