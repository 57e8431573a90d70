package store

import (
	"errors"
	"io"
	"path/filepath"
	"sync"
	"testing"

	"lbc/internal/rvm"
	"lbc/internal/wal"
)

func newPair(t *testing.T) (*Server, *Client) {
	t.Helper()
	srv, err := NewServer("127.0.0.1:0", ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cli, err := Dial(srv.Addr())
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close(); srv.Close() })
	return srv, cli
}

func TestRegionRoundTrip(t *testing.T) {
	_, cli := newPair(t)
	img := []byte("the permanent database image")
	if err := cli.StoreRegion(3, img); err != nil {
		t.Fatal(err)
	}
	got, err := cli.LoadRegion(3)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(img) {
		t.Fatalf("got %q", got)
	}
}

func TestLoadMissingRegion(t *testing.T) {
	_, cli := newPair(t)
	if _, err := cli.LoadRegion(42); !errors.Is(err, rvm.ErrNoRegion) {
		t.Fatalf("err = %v, want ErrNoRegion sentinel", err)
	}
}

func TestListRegionsAndSync(t *testing.T) {
	_, cli := newPair(t)
	cli.StoreRegion(1, []byte("a"))
	cli.StoreRegion(2, []byte("b"))
	ids, err := cli.Regions()
	if err != nil || len(ids) != 2 {
		t.Fatalf("regions = %v, %v", ids, err)
	}
	if err := cli.Sync(); err != nil {
		t.Fatal(err)
	}
}

func TestRemoteLogDevice(t *testing.T) {
	_, cli := newPair(t)
	dev := cli.LogDevice(7)

	off, err := dev.Append([]byte("abc"))
	if err != nil || off != 0 {
		t.Fatalf("append: off=%d err=%v", off, err)
	}
	off, err = dev.Append([]byte("defgh"))
	if err != nil || off != 3 {
		t.Fatalf("append 2: off=%d err=%v", off, err)
	}
	if err := dev.Sync(); err != nil {
		t.Fatal(err)
	}
	sz, err := dev.Size()
	if err != nil || sz != 8 {
		t.Fatalf("size = %d, %v", sz, err)
	}
	rc, err := dev.Open(3)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(rc)
	rc.Close()
	if string(b) != "defgh" {
		t.Fatalf("read %q", b)
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

	logs, err := cli.Logs()
	if err != nil || len(logs) != 1 || logs[0] != 7 {
		t.Fatalf("logs = %v, %v", logs, err)
	}
}

// TestRVMOverStore runs the full RVM commit/recover cycle with the log
// and database on the storage server — the paper's client/server
// configuration.
func TestRVMOverStore(t *testing.T) {
	srv, cli := newPair(t)

	r, err := rvm.Open(rvm.Options{Node: 1, Log: cli.LogDevice(1), Data: cli})
	if err != nil {
		t.Fatal(err)
	}
	reg, _ := r.Map(1, 256)
	tx := r.Begin(rvm.NoRestore)
	tx.SetRange(reg, 0, 9)
	copy(reg.Bytes(), "networked")
	if _, err := tx.Commit(rvm.Flush); err != nil {
		t.Fatal(err)
	}

	// A second client (recovery utility) replays the log server-side
	// into the permanent image.
	cli2, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli2.Close()
	res, err := rvm.Recover(cli2.LogDevice(1), cli2, rvm.RecoverOptions{TrimLog: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != 1 {
		t.Fatalf("recovered %d records", res.Records)
	}
	img, err := cli2.LoadRegion(1)
	if err != nil {
		t.Fatal(err)
	}
	if string(img[:9]) != "networked" {
		t.Fatalf("image = %q", img[:9])
	}
	if sz, _ := cli2.LogDevice(1).Size(); sz != 0 {
		t.Fatal("log not trimmed")
	}
}

func TestConcurrentClients(t *testing.T) {
	srv, _ := newPair(t)
	var wg sync.WaitGroup
	for n := 0; n < 4; n++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			cli, err := Dial(srv.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			defer cli.Close()
			dev := cli.LogDevice(uint32(n))
			for i := 0; i < 50; i++ {
				if _, err := dev.Append([]byte{byte(i)}); err != nil {
					t.Error(err)
					return
				}
			}
			if sz, _ := dev.Size(); sz != 50 {
				t.Errorf("node %d: size %d", n, sz)
			}
		}(n)
	}
	wg.Wait()
	if logs := srv.Logs(); len(logs) != 4 {
		t.Fatalf("server has %d logs", len(logs))
	}
}

func TestServerWithDirBackends(t *testing.T) {
	dir := t.TempDir()
	data, err := rvm.NewDirStore(filepath.Join(dir, "data"))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer("127.0.0.1:0", ServerOptions{
		Data: data,
		NewLog: func(node uint32) (wal.Device, error) {
			return wal.OpenFileDevice(filepath.Join(dir, "log-"+string(rune('0'+node))))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	if err := cli.StoreRegion(1, []byte("on disk")); err != nil {
		t.Fatal(err)
	}
	dev := cli.LogDevice(1)
	if _, err := dev.Append([]byte("log bytes")); err != nil {
		t.Fatal(err)
	}
	if err := dev.Sync(); err != nil {
		t.Fatal(err)
	}
	rc, err := dev.Open(4)
	if err != nil {
		t.Fatal(err)
	}
	tail, _ := io.ReadAll(rc)
	rc.Close()
	if string(tail) != "bytes" {
		t.Fatalf("file log tail: %q", tail)
	}
	img, err := cli.LoadRegion(1)
	if err != nil || string(img) != "on disk" {
		t.Fatalf("load: %q, %v", img, err)
	}
}

func TestBadOpReturnsError(t *testing.T) {
	_, cli := newPair(t)
	if _, err := cli.call(200, nil); err == nil {
		t.Fatal("unknown op accepted")
	}
	// Connection must still be usable after a server-side error.
	if err := cli.StoreRegion(1, []byte("x")); err != nil {
		t.Fatalf("connection dead after error: %v", err)
	}
}

// TestTruncateLogNegativeSize: a TruncateLog request carrying a size
// that decodes negative is answered with an error. It used to reach the
// in-memory log device, panic there and take the server down.
func TestTruncateLogNegativeSize(t *testing.T) {
	_, cli := newPair(t)
	dev := cli.LogDevice(1)
	if _, err := dev.Append([]byte("record")); err != nil {
		t.Fatal(err)
	}
	if err := dev.Truncate(-1); err == nil {
		t.Fatal("TruncateLog(-1) accepted")
	}
	if sz, err := dev.Size(); err != nil || sz != 6 {
		t.Fatalf("size after rejected truncate = %d, %v; want 6", sz, err)
	}
}
