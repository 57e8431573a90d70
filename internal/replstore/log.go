package replstore

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"lbc/internal/metrics"
	"lbc/internal/obs"
	"lbc/internal/store"
)

// quorumLog is the wal.Device view of one node's redo log, replicated
// across the quorum. Appends are offset-guarded: every replica applies
// the record at the same offset, so logs are byte-identical prefixes
// of each other and the freshest replica is simply the longest one.
type quorumLog struct {
	c    *Client
	node uint32

	mu      sync.Mutex
	nextOff int64 // next append offset; -1 until learned from a size quorum
}

// sizeQuorum collects log sizes from a majority and returns the
// per-replica sizes plus the freshest (longest) replica. It also feeds
// the client's replica-lag tracking.
func (c *Client) sizeQuorum(node uint32) (sizes map[string]int64, maxAddr string, maxSize int64, err error) {
	replies, err := c.withQuorum("log_size", func(_ string, sc *store.Client) (any, error) {
		return sc.LogDevice(node).Size()
	})
	if err != nil {
		return nil, "", 0, err
	}
	sizes = map[string]int64{}
	for _, r := range replies {
		if r.err != nil {
			continue
		}
		sz := r.val.(int64)
		sizes[r.addr] = sz
		if sz >= maxSize || maxAddr == "" {
			maxAddr, maxSize = r.addr, sz
		}
	}
	c.mu.Lock()
	for addr, sz := range sizes {
		c.lag[addr] = maxSize - sz
	}
	c.mu.Unlock()
	for _, sz := range sizes {
		c.stats.Observe(metrics.HistReplicaLagBytes, maxSize-sz)
	}
	return sizes, maxAddr, maxSize, nil
}

// Append implements wal.Device: the record is placed at the same
// offset on every replica and acknowledged once a majority holds it.
// Replicas reporting a missing prefix are repaired (the gap copied
// from the freshest replica) without blocking the acknowledgement.
func (l *quorumLog) Append(p []byte) (int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	start := time.Now()
	c := l.c
	if l.nextOff < 0 {
		_, _, maxSize, err := c.sizeQuorum(l.node)
		if err != nil {
			return 0, err
		}
		l.nextOff = maxSize
	}
	var lastReplies []reply
	for attempt := 0; attempt < 3; attempt++ {
		if attempt > 0 {
			c.stats.Add(metrics.CtrStoreQuorumRetries, 1)
			c.RefreshView()
		}
		members := c.members()
		off := l.nextOff
		replies := c.fanout(members, func(addr string, sc *store.Client) (any, error) {
			size, err := sc.AppendLogAt(l.node, off, p)
			var behind *store.BehindError
			if errors.As(err, &behind) {
				// Copy the gap from the freshest replica and place the
				// record again, here on the replica's own fan-out
				// goroutine: fanout returns at the first majority, so a
				// replica that answers "behind" after it would otherwise
				// never be repaired. The append guard makes the second
				// attempt idempotent if the copied gap already held the
				// record.
				c.stats.Add(metrics.CtrStoreReplicaBehind, 1)
				if rerr := c.repairLog(l.node, addr); rerr == nil {
					c.stats.Add(metrics.CtrStoreLogRepairs, 1)
					size, err = sc.AppendLogAt(l.node, off, p)
				}
			}
			return size, err
		})
		lastReplies = replies
		if successes(replies) < len(members)/2+1 {
			// A failed round can be self-inflicted: nextOff is learned
			// from the *longest* replica, which may carry an
			// unacknowledged tail (a coordinator that died mid-fan-out
			// persisted a record on a minority). Then the append lands
			// on that one replica while the majority answers "behind";
			// the repair above lets a quorum re-form at this offset on
			// the retry.
			continue
		}
		l.nextOff = off + int64(len(p))
		c.stats.Add(metrics.CtrStoreQuorumWrites, 1)
		c.stats.Observe(metrics.HistQuorumWriteNS, time.Since(start).Nanoseconds())
		if c.trace.Enabled() {
			c.trace.Emit(obs.Span{
				Name: obs.SpanQuorumWrite, Node: l.node,
				Start: start.UnixNano(), Dur: time.Since(start).Nanoseconds(),
				N: int64(len(p)),
			})
		}
		return off, nil
	}
	return 0, noQuorum(fmt.Sprintf("append_log_at node %d", l.node), len(c.members())/2+1, lastReplies)
}

// repairLog copies node's log gap from the freshest replica to a
// behind replica, in bounded chunks framed through the append guard
// (so a concurrent append or a racing repair cannot corrupt the log).
func (c *Client) repairLog(node uint32, addr string) error {
	dst, err := c.conn(addr)
	if err != nil {
		return err
	}
	for round := 0; round < 4; round++ {
		// Every member is asked, not just the first majority to answer:
		// the tail may sit on one replica alone (an unacknowledged record
		// a dead coordinator left behind, which Append learned its offset
		// from), and a size quorum can miss it.
		var maxAddr string
		var maxSize int64
		for _, r := range c.gatherAll(c.members(), func(_ string, sc *store.Client) (any, error) {
			return sc.LogDevice(node).Size()
		}) {
			if r.err == nil && (maxAddr == "" || r.val.(int64) > maxSize) {
				maxAddr, maxSize = r.addr, r.val.(int64)
			}
		}
		if maxAddr == "" {
			return fmt.Errorf("replstore: log %d repair of %s: no replica reported a size", node, addr)
		}
		have, err := dst.LogDevice(node).Size()
		if err != nil {
			return err
		}
		if have >= maxSize {
			return nil
		}
		if maxAddr == addr {
			return nil
		}
		donor, err := c.conn(maxAddr)
		if err != nil {
			return err
		}
		if err := c.copyLogRange(donor, dst, node, have, maxSize); err != nil {
			return err
		}
	}
	return fmt.Errorf("replstore: log %d repair of %s did not converge", node, addr)
}

// copyLogRange streams [from, to) of node's log from donor to dst in
// chunked, offset-guarded appends. Donor reads use the same chunk size
// as the appends, so client and donor memory stay bounded no matter
// how large the catch-up gap is.
func (c *Client) copyLogRange(donor, dst *store.Client, node uint32, from, to int64) error {
	const chunk = 1 << 18
	for off := from; off < to; {
		n := to - off
		if n > chunk {
			n = chunk
		}
		data, err := donor.ReadLogRange(node, off, n)
		if err != nil {
			return err
		}
		if len(data) == 0 {
			return nil // donor shrank (trim); copy what it had
		}
		if _, err := dst.AppendLogAt(node, off, data); err != nil {
			return err
		}
		off += int64(len(data))
		if int64(len(data)) < n {
			return nil // donor shrank mid-copy
		}
	}
	return nil
}

// Sync implements wal.Device: a majority must force the log.
func (l *quorumLog) Sync() error {
	_, err := l.c.withQuorum("sync_log", func(_ string, sc *store.Client) (any, error) {
		return nil, sc.LogDevice(l.node).Sync()
	})
	return err
}

// Size implements wal.Device: the freshest replica's size. Any
// acknowledged append reached a majority, which intersects the size
// quorum, so the maximum covers every acknowledged byte.
func (l *quorumLog) Size() (int64, error) {
	_, _, maxSize, err := l.c.sizeQuorum(l.node)
	return maxSize, err
}

// Open implements wal.Device, reading from the freshest replica.
func (l *quorumLog) Open(from int64) (io.ReadCloser, error) {
	_, maxAddr, maxSize, err := l.c.sizeQuorum(l.node)
	if err != nil {
		return nil, err
	}
	if maxSize <= from {
		return io.NopCloser(bytes.NewReader(nil)), nil
	}
	sc, err := l.c.conn(maxAddr)
	if err != nil {
		return nil, err
	}
	return sc.LogDevice(l.node).Open(from)
}

// Truncate implements wal.Device (offline trim): a majority must
// apply it. Replicas that miss the trim carry stale tail records until
// the next catch-up; replay dedupes them, so recovery is unaffected.
func (l *quorumLog) Truncate(size int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	_, err := l.c.withQuorum("truncate_log", func(_ string, sc *store.Client) (any, error) {
		return nil, sc.LogDevice(l.node).Truncate(size)
	})
	l.nextOff = -1
	return err
}

// Reset implements wal.Device: a majority must clear the log.
func (l *quorumLog) Reset() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	_, err := l.c.withQuorum("reset_log", func(_ string, sc *store.Client) (any, error) {
		return nil, sc.LogDevice(l.node).Reset()
	})
	if err != nil {
		l.nextOff = -1
		return err
	}
	l.nextOff = 0
	return nil
}

// Close implements wal.Device (the quorum client stays open; logs
// share its connections).
func (l *quorumLog) Close() error { return nil }

// sortedU32 returns a sorted copy (shared helper for digest and view
// code).
func sortedU32(ids []uint32) []uint32 {
	out := append([]uint32(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
