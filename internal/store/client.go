package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync"
	"time"

	"lbc/internal/bufpool"
	"lbc/internal/metrics"
	"lbc/internal/rvm"
	"lbc/internal/wal"
)

// Client talks to a storage Server. It implements rvm.DataStore
// directly, and LogDevice returns a wal.Device view of one node's log
// on the server. A Client serializes its requests over a single TCP
// connection, like a single NFS mount in the prototype.
//
// A failover client (DialFailover) carries an ordered address list —
// primary first, then backups. A request that fails at the transport
// level is retried: first on a fresh connection to the same address
// (transient drop), then against each successor address (dead server,
// promote the backup). Server-reported errors never fail over. Note
// the at-least-once consequence: an append whose response was lost
// may be retried against a server that already applied it, so log
// replay (merge, catch-up) deduplicates records by (node, commit-seq).
type Client struct {
	stats *metrics.Stats

	mu    sync.Mutex
	conn  net.Conn
	addrs []string   // failover list; empty for a plain Dial client
	cur   int        // index into addrs currently connected
	rng   *rand.Rand // failover backoff jitter; guarded by mu
}

var _ rvm.DataStore = (*Client)(nil)

const (
	dialTimeout = 2 * time.Second
	// Failover ring walks pause between attempts on a jittered, capped
	// exponential backoff, so a herd of clients that lost the same
	// primary does not re-dial the backup in lockstep.
	failoverBackoff    = 5 * time.Millisecond
	failoverBackoffMax = 250 * time.Millisecond
)

// Dial connects to a storage server.
func Dial(addr string) (*Client, error) {
	c := &Client{stats: metrics.NewStats(), rng: rand.New(rand.NewSource(1))}
	conn, err := c.dial(addr)
	if err != nil {
		return nil, err
	}
	c.conn = conn
	return c, nil
}

// DialFailover connects to the first reachable address and arms
// transparent failover across the rest (primary/backup mirroring:
// clients re-home to the backup when the primary dies). When every
// address fails, the returned error is a *DialError listing each
// attempt.
func DialFailover(addrs ...string) (*Client, error) {
	if len(addrs) == 0 {
		return nil, errors.New("store: DialFailover needs at least one address")
	}
	c := &Client{stats: metrics.NewStats(), addrs: addrs,
		rng: rand.New(rand.NewSource(int64(len(addrs))*0x9E3779B9 + 1))}
	agg := &DialError{Op: "dial"}
	for i, addr := range addrs {
		conn, err := c.dial(addr)
		if err != nil {
			agg.Attempts = append(agg.Attempts, DialAttempt{Addr: addr, Err: err})
			continue
		}
		c.conn = conn
		c.cur = i
		return c, nil
	}
	return nil, agg
}

// Stats exposes the client's op latency histograms (read/write/dial)
// for the /debug/lbc endpoint.
func (c *Client) Stats() *metrics.Stats { return c.stats }

// dial connects to one address, recording dial latency.
func (c *Client) dial(addr string) (net.Conn, error) {
	start := time.Now()
	conn, err := net.DialTimeout("tcp", addr, dialTimeout)
	c.stats.Observe(metrics.HistStoreDialNS, time.Since(start).Nanoseconds())
	if err != nil {
		return nil, fmt.Errorf("store: dial %s: %w", addr, err)
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	return conn, nil
}

// Close closes the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return nil
	}
	return c.conn.Close()
}

// roundTrip performs one request/response exchange on the current
// connection. Any error it returns is a transport failure.
func (c *Client) roundTrip(op uint8, body []byte) ([]byte, error) {
	if c.conn == nil {
		return nil, errors.New("store: not connected")
	}
	if err := writeReq(c.conn, op, body); err != nil {
		return nil, fmt.Errorf("store: send: %w", err)
	}
	resp, err := readMsg(c.conn)
	if err != nil {
		return nil, fmt.Errorf("store: recv: %w", err)
	}
	return resp, nil
}

// call performs one request/response round trip, failing over across
// the configured address list on transport errors. A walk that
// exhausts the whole ring reports a *DialError naming every address
// tried and how each failed.
func (c *Client) call(op uint8, body []byte) ([]byte, error) {
	start := time.Now()
	defer func() {
		if isWriteOp(op) {
			c.stats.Observe(metrics.HistStoreWriteNS, time.Since(start).Nanoseconds())
		} else {
			c.stats.Observe(metrics.HistStoreReadNS, time.Since(start).Nanoseconds())
		}
	}()
	c.mu.Lock()
	defer c.mu.Unlock()
	resp, err := c.roundTrip(op, body)
	if err != nil && len(c.addrs) > 0 {
		agg := &DialError{Op: opCounter(op)}
		agg.Attempts = append(agg.Attempts, DialAttempt{Addr: c.addrs[c.cur], Err: err})
		// Attempt 0 re-dials the current address; each further attempt
		// advances to the next one in the ring, pausing on a jittered,
		// capped exponential backoff first.
		backoff := failoverBackoff
		for attempt := 0; attempt <= len(c.addrs) && err != nil; attempt++ {
			if c.conn != nil {
				c.conn.Close()
				c.conn = nil
			}
			if attempt > 0 {
				c.cur = (c.cur + 1) % len(c.addrs)
				d := backoff
				if half := d / 2; half > 0 {
					d = half + time.Duration(c.rng.Int63n(int64(half)+1))
				}
				time.Sleep(d)
				if backoff < failoverBackoffMax {
					backoff *= 2
				}
			}
			conn, derr := c.dial(c.addrs[c.cur])
			if derr != nil {
				err = derr
				agg.Attempts = append(agg.Attempts, DialAttempt{Addr: c.addrs[c.cur], Err: derr})
				continue
			}
			c.conn = conn
			resp, err = c.roundTrip(op, body)
			if err != nil {
				agg.Attempts = append(agg.Attempts, DialAttempt{Addr: c.addrs[c.cur], Err: err})
			}
		}
		if err != nil {
			c.stats.Add(metrics.CtrRetriesExhausted, 1)
			return nil, agg
		}
	}
	if err != nil {
		return nil, err
	}
	if len(resp) == 0 {
		return nil, errors.New("store: empty response")
	}
	switch resp[0] {
	case statusErr:
		msg := string(resp[1:])
		// Re-map the sentinel that DataStore consumers test for.
		if strings.Contains(msg, rvm.ErrNoRegion.Error()) {
			return nil, rvm.ErrNoRegion
		}
		return nil, errors.New(msg)
	case statusBehind:
		if len(resp) != 9 {
			return nil, errors.New("store: bad behind response")
		}
		return nil, &BehindError{Size: int64(binary.LittleEndian.Uint64(resp[1:]))}
	}
	return resp[1:], nil
}

// LoadRegion implements rvm.DataStore.
func (c *Client) LoadRegion(id uint32) ([]byte, error) {
	var req [4]byte
	binary.LittleEndian.PutUint32(req[:], id)
	return c.call(opLoadRegion, req[:])
}

// StoreRegion implements rvm.DataStore.
func (c *Client) StoreRegion(id uint32, data []byte) error {
	req := make([]byte, 4+len(data))
	binary.LittleEndian.PutUint32(req, id)
	copy(req[4:], data)
	_, err := c.call(opStoreRegion, req)
	return err
}

// StorePages implements rvm.DataStore: the whole batch travels in one
// request, so a checkpoint sweep costs round trips per batch, not per
// page — and never a read of the image it is updating.
func (c *Client) StorePages(id uint32, pages []rvm.PageWrite) error {
	_, err := c.call(opStorePages, encodeStorePages(id, pages))
	return err
}

// Regions implements rvm.DataStore.
func (c *Client) Regions() ([]uint32, error) {
	resp, err := c.call(opListRegions, nil)
	if err != nil {
		return nil, err
	}
	return decodeIDs(resp)
}

// Sync implements rvm.DataStore.
func (c *Client) Sync() error {
	_, err := c.call(opSyncData, nil)
	return err
}

// Logs lists node ids that have logs on the server.
func (c *Client) Logs() ([]uint32, error) {
	resp, err := c.call(opListLogs, nil)
	if err != nil {
		return nil, err
	}
	return decodeIDs(resp)
}

// AppendLogAt appends data to node's log iff the log is exactly
// expected bytes long (see handleAppendLogAt for the dup/torn-tail
// cases). Returns the log size after the append. A log missing the
// prefix yields a *BehindError carrying its current size.
func (c *Client) AppendLogAt(node uint32, expected int64, data []byte) (int64, error) {
	req := bufpool.Get(12 + len(data))[:12+len(data)]
	defer bufpool.Put(req)
	binary.LittleEndian.PutUint32(req, node)
	binary.LittleEndian.PutUint64(req[4:], uint64(expected))
	copy(req[12:], data)
	resp, err := c.call(opAppendLogAt, req)
	if err != nil {
		var behind *BehindError
		if errors.As(err, &behind) {
			behind.Node = node
		}
		return 0, err
	}
	if len(resp) != 8 {
		return 0, errors.New("store: bad AppendLogAt response")
	}
	return int64(binary.LittleEndian.Uint64(resp)), nil
}

// LogDevice returns a wal.Device backed by node's log on the server.
func (c *Client) LogDevice(node uint32) wal.Device {
	return &remoteLog{c: c, node: node, nextOff: -1}
}

// remoteLog adapts the server's per-node log to wal.Device. Appends go
// through the offset-guarded AppendLogAt op: the device tracks where
// its next record belongs, so a retried append after a lost ack (or a
// failover to a mirror that already applied the forwarded copy) acks
// idempotently instead of duplicating the record.
type remoteLog struct {
	c    *Client
	node uint32

	offMu   sync.Mutex
	nextOff int64 // next append offset; -1 until learned from the server
}

func (l *remoteLog) req(extra int) []byte {
	b := make([]byte, 4, 4+extra)
	binary.LittleEndian.PutUint32(b, l.node)
	return b
}

// Append implements wal.Device via the offset-guarded protocol.
func (l *remoteLog) Append(p []byte) (int64, error) {
	l.offMu.Lock()
	defer l.offMu.Unlock()
	if l.nextOff < 0 {
		sz, err := l.sizeRemote()
		if err != nil {
			return 0, err
		}
		l.nextOff = sz
	}
	newSize, err := l.c.AppendLogAt(l.node, l.nextOff, p)
	var behind *BehindError
	if errors.As(err, &behind) {
		// The server's log shrank under us (offline trim by another
		// client). Re-home to its current tail, matching the plain
		// append-at-end semantics this device used to have.
		l.nextOff = behind.Size
		newSize, err = l.c.AppendLogAt(l.node, l.nextOff, p)
	}
	if err != nil {
		l.nextOff = -1 // relearn after an ambiguous failure
		return 0, err
	}
	off := l.nextOff
	l.nextOff = newSize
	return off, nil
}

// Sync implements wal.Device.
func (l *remoteLog) Sync() error {
	_, err := l.c.call(opSyncLog, l.req(0))
	return err
}

// Size implements wal.Device.
func (l *remoteLog) Size() (int64, error) { return l.sizeRemote() }

func (l *remoteLog) sizeRemote() (int64, error) {
	resp, err := l.c.call(opLogSize, l.req(0))
	if err != nil {
		return 0, err
	}
	if len(resp) != 8 {
		return 0, errors.New("store: bad LogSize response")
	}
	return int64(binary.LittleEndian.Uint64(resp)), nil
}

// Open implements wal.Device: the tail is fetched in one round trip.
func (l *remoteLog) Open(from int64) (io.ReadCloser, error) {
	req := l.req(8)
	var off [8]byte
	binary.LittleEndian.PutUint64(off[:], uint64(from))
	resp, err := l.c.call(opReadLog, append(req, off[:]...))
	if err != nil {
		return nil, err
	}
	return io.NopCloser(bytes.NewReader(resp)), nil
}

// Truncate implements wal.Device.
func (l *remoteLog) Truncate(size int64) error {
	l.offMu.Lock()
	defer l.offMu.Unlock()
	req := l.req(8)
	var sz [8]byte
	binary.LittleEndian.PutUint64(sz[:], uint64(size))
	_, err := l.c.call(opTruncateLog, append(req, sz[:]...))
	l.nextOff = -1
	return err
}

// Reset implements wal.Device.
func (l *remoteLog) Reset() error {
	l.offMu.Lock()
	defer l.offMu.Unlock()
	_, err := l.c.call(opResetLog, l.req(0))
	if err == nil {
		l.nextOff = 0
	} else {
		l.nextOff = -1
	}
	return err
}

// Close implements wal.Device (the underlying client stays open; logs
// share its connection).
func (l *remoteLog) Close() error { return nil }
