package lbc

import (
	"testing"
	"time"

	"lbc/internal/rvm"
)

func TestPiggybackOption(t *testing.T) {
	cluster, err := NewLocalCluster(2, WithPropagation(Piggyback))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	cluster.MapAll(1, 4096)
	cluster.Barrier(1)

	a, b := cluster.Node(0), cluster.Node(1)
	tx := a.Begin(NoRestore)
	tx.Acquire(0)
	tx.Write(a.RVM().Region(1), 0, []byte("via token"))
	if _, err := tx.Commit(NoFlush); err != nil {
		t.Fatal(err)
	}
	tx2 := b.Begin(NoRestore)
	if err := tx2.Acquire(0); err != nil {
		t.Fatal(err)
	}
	got := string(b.RVM().Region(1).Bytes()[:9])
	tx2.Commit(NoFlush)
	if got != "via token" {
		t.Fatalf("peer sees %q", got)
	}
}

// TestReplicatedStoreOption: under WithReplicatedStore every commit is
// mirrored to the backup, and the nodes' store clients fail over to it
// when the primary dies, so commits continue and the backup alone
// recovers every record.
func TestReplicatedStoreOption(t *testing.T) {
	cluster, err := NewLocalCluster(2, WithReplicatedStore(), WithSeedImage(2, []byte("seed")))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	cluster.MapAll(1, 4096)
	cluster.Barrier(1)

	a := cluster.Node(0)
	commit := func(off uint64, data string) {
		t.Helper()
		tx := a.Begin(NoRestore)
		tx.Acquire(0)
		tx.Write(a.RVM().Region(1), off, []byte(data))
		if _, err := tx.Commit(Flush); err != nil {
			t.Fatal(err)
		}
	}
	commit(0, "mirrored")
	backup := cluster.StoreBackup()
	if backup == nil {
		t.Fatal("no backup server")
	}
	cluster.replica.FailPrimary()
	commit(8, "failover")

	// The backup holds the whole log; recover from it.
	dev, err := backup.Log(1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rvm.Recover(dev, backup.Data(), rvm.RecoverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != 2 {
		t.Fatalf("backup recovered %d records, want 2", res.Records)
	}
	img, err := backup.Data().LoadRegion(1)
	if err != nil {
		t.Fatal(err)
	}
	if string(img[:16]) != "mirroredfailover" {
		t.Fatalf("backup image = %q", img[:16])
	}
	if seed, err := backup.Data().LoadRegion(2); err != nil || string(seed) != "seed" {
		t.Fatalf("backup seed image = %q, %v", seed, err)
	}
}

func TestCoordinatedCheckpointViaFacade(t *testing.T) {
	cluster, err := NewLocalCluster(3)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	cluster.MapAll(1, 4096)
	cluster.Barrier(1)

	for i := 0; i < 3; i++ {
		n := cluster.Node(i)
		tx := n.Begin(NoRestore)
		tx.Acquire(0)
		tx.Write(n.RVM().Region(1), uint64(i*8), []byte("x"))
		if _, err := tx.Commit(NoFlush); err != nil {
			t.Fatal(err)
		}
	}
	if err := cluster.Node(1).CoordinatedCheckpoint([]uint32{0}, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if sz, _ := cluster.Log(i).Size(); sz != 0 {
			t.Fatalf("node %d log not trimmed: %d bytes", i+1, sz)
		}
	}
}
