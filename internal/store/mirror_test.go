package store

import (
	"errors"
	"io"
	"testing"

	"lbc/internal/rvm"
)

func newPairWithMirror(t *testing.T) (*ReplicaPair, *Client) {
	t.Helper()
	pair, err := NewReplicaPair("127.0.0.1:0", "127.0.0.1:0", ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pair.Close)
	cli, err := Dial(pair.Primary.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	return pair, cli
}

func TestMirrorReplicatesRegions(t *testing.T) {
	pair, cli := newPairWithMirror(t)
	if err := cli.StoreRegion(1, []byte("replicated image")); err != nil {
		t.Fatal(err)
	}
	img, err := pair.Backup.Data().LoadRegion(1)
	if err != nil {
		t.Fatal(err)
	}
	if string(img) != "replicated image" {
		t.Fatalf("backup image = %q", img)
	}
}

func TestMirrorReplicatesLogs(t *testing.T) {
	pair, cli := newPairWithMirror(t)
	dev := cli.LogDevice(3)
	if _, err := dev.Append([]byte("log entry")); err != nil {
		t.Fatal(err)
	}
	if err := dev.Sync(); err != nil {
		t.Fatal(err)
	}
	bdev, err := pair.Backup.Log(3)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := bdev.Open(0)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(rc)
	rc.Close()
	if string(got) != "log entry" {
		t.Fatalf("backup log = %q", got)
	}
	// Truncate and reset propagate too.
	if err := dev.Truncate(3); err != nil {
		t.Fatal(err)
	}
	if sz, _ := bdev.Size(); sz != 3 {
		t.Fatalf("backup size after truncate = %d", sz)
	}
	if err := dev.Reset(); err != nil {
		t.Fatal(err)
	}
	if sz, _ := bdev.Size(); sz != 0 {
		t.Fatalf("backup size after reset = %d", sz)
	}
}

func TestFailoverToBackup(t *testing.T) {
	pair, cli := newPairWithMirror(t)

	// Run a full RVM commit against the primary.
	r, err := rvm.Open(rvm.Options{Node: 1, Log: cli.LogDevice(1), Data: cli})
	if err != nil {
		t.Fatal(err)
	}
	reg, _ := r.Map(1, 128)
	tx := r.Begin(rvm.NoRestore)
	tx.SetRange(reg, 0, 9)
	copy(reg.Bytes(), "replicate")
	if _, err := tx.Commit(rvm.Flush); err != nil {
		t.Fatal(err)
	}

	// Primary dies; a new client session runs recovery off the backup.
	pair.FailPrimary()
	cli2, err := Dial(pair.Backup.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli2.Close()
	res, err := rvm.Recover(cli2.LogDevice(1), cli2, rvm.RecoverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != 1 {
		t.Fatalf("recovered %d records from backup", res.Records)
	}
	img, err := cli2.LoadRegion(1)
	if err != nil {
		t.Fatal(err)
	}
	if string(img[:9]) != "replicate" {
		t.Fatalf("backup-recovered image = %q", img[:9])
	}
}

func TestMirrorErrorSurfacesToClient(t *testing.T) {
	pair, cli := newPairWithMirror(t)
	// Kill the backup: mutations must now report degraded durability.
	pair.Backup.Close()
	err := cli.StoreRegion(1, []byte("x"))
	if err == nil {
		t.Fatal("mutation succeeded silently with dead mirror")
	}
	// Reads still work (served from the primary).
	if _, err := cli.Regions(); err != nil {
		t.Fatalf("read failed: %v", err)
	}
}

func TestMirrorMissingRegionStillErrors(t *testing.T) {
	_, cli := newPairWithMirror(t)
	if _, err := cli.LoadRegion(42); !errors.Is(err, rvm.ErrNoRegion) {
		t.Fatalf("err = %v", err)
	}
}
