package store

import (
	"encoding/binary"
	"math/rand"
	"net"
	"testing"
	"time"

	"lbc/internal/wal"
)

// TestServerSurvivesGarbage throws malformed byte streams at the
// server: it must drop the connection without crashing and keep
// serving well-formed clients.
func TestServerSurvivesGarbage(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 20; i++ {
		c, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		junk := make([]byte, rng.Intn(200)+1)
		rng.Read(junk)
		c.Write(junk)
		c.Close()
	}
	// Oversized length prefix.
	c, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	var huge [4]byte
	binary.LittleEndian.PutUint32(huge[:], 1<<31)
	c.Write(huge[:])
	c.Close()

	// A healthy client still works.
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := cli.StoreRegion(1, []byte("still alive")); err != nil {
		t.Fatal(err)
	}
	img, err := cli.LoadRegion(1)
	if err != nil || string(img) != "still alive" {
		t.Fatalf("load after garbage: %q, %v", img, err)
	}
}

// TestServerHalfOpenConnections: clients that connect and go silent
// must not wedge the accept loop.
func TestServerHalfOpenConnections(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var idle []net.Conn
	for i := 0; i < 8; i++ {
		c, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		idle = append(idle, c)
	}
	defer func() {
		for _, c := range idle {
			c.Close()
		}
	}()
	done := make(chan error, 1)
	go func() {
		cli, err := Dial(srv.Addr())
		if err != nil {
			done <- err
			return
		}
		defer cli.Close()
		done <- cli.StoreRegion(2, []byte("x"))
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server wedged by idle connections")
	}
}

// tornProxy relays fullExchanges request/response pairs between one
// client connection and target, then forwards one more request but
// swallows its response and severs everything: the server persists the
// operation, the client never sees the ack.
func tornProxy(t *testing.T, target string, fullExchanges int) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	relay := func(dst net.Conn, src net.Conn) error {
		msg, err := readMsg(src)
		if err != nil {
			return err
		}
		var hdr [4]byte
		binary.LittleEndian.PutUint32(hdr[:], uint32(len(msg)))
		if _, err := dst.Write(hdr[:]); err != nil {
			return err
		}
		_, err = dst.Write(msg)
		return err
	}
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		s, err := net.Dial("tcp", target)
		if err != nil {
			return
		}
		defer s.Close()
		defer ln.Close()
		for i := 0; i < fullExchanges; i++ {
			if relay(s, c) != nil || relay(c, s) != nil {
				return
			}
		}
		// The torn exchange: the server applies it, the ack dies here.
		if relay(s, c) != nil {
			return
		}
		readMsg(s)
	}()
	return ln.Addr().String()
}

// TestTornWriteThenReconnect: the server persists an append but dies
// (from the client's perspective) before acking. The failover client
// retries the append against the server directly; the offset-guarded
// protocol must ack idempotently, leaving exactly one copy of the
// record. A mirrored pair relies on the same: after a failover the
// retried append meets the copy the primary already forwarded.
func TestTornWriteThenReconnect(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// One clean exchange (the size query that seeds the append cursor),
	// then the append's ack is torn away.
	proxyAddr := tornProxy(t, srv.Addr(), 1)

	cli, err := DialFailover(proxyAddr, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	dev := cli.LogDevice(11)

	rec := wal.AppendStandard(nil, &wal.TxRecord{Node: 11, TxSeq: 1,
		Ranges: []wal.RangeRec{{Region: 1, Off: 0, Data: []byte("exactly-once")}}})
	if _, err := dev.Append(rec); err != nil {
		t.Fatalf("append through torn connection: %v", err)
	}
	rec2 := wal.AppendStandard(nil, &wal.TxRecord{Node: 11, TxSeq: 2,
		Ranges: []wal.RangeRec{{Region: 1, Off: 16, Data: []byte("second")}}})
	if _, err := dev.Append(rec2); err != nil {
		t.Fatalf("append after reconnect: %v", err)
	}

	log, err := srv.Log(11)
	if err != nil {
		t.Fatal(err)
	}
	txs, err := wal.ReadDevice(log)
	if err != nil {
		t.Fatal(err)
	}
	if len(txs) != 2 {
		t.Fatalf("want exactly 2 records after torn-write retry, got %d", len(txs))
	}
	seen := map[uint64]int{}
	for _, tx := range txs {
		seen[tx.TxSeq]++
	}
	if seen[1] != 1 || seen[2] != 1 {
		t.Fatalf("record duplication after retry: %v", seen)
	}
}
