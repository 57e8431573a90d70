package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"
)

// spanKind names a bench.* span. Spans are recorded by the benchmark
// around its calls into the program; none is emitted by the program.
type spanKind uint8

const (
	spanTx spanKind = iota
	spanBegin
	spanAcquire
	spanWrite
	spanCommit
	spanVerify
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"bench.tx", "bench.begin", "bench.acquire", "bench.write", "bench.commit", "bench.verify"}

// span is one in-memory trace record. The parent of every child span is
// the bench.tx span with the same (client, tx).
type span struct {
	kind       spanKind
	client     uint8
	tx         uint32
	start, end int64 // ns since the rig's epoch
}

// client is one generator goroutine's state. Nothing in it is shared.
type client struct {
	id       int
	lo, n    int  // private slice
	ops      []op // the workload's stream
	mix      []op // the mixed stream crash cycles draw from
	out      []op // what survivors run while the victim is down
	sched    []int64
	next     int
	nextMix  int
	nextOut  int
	lastSeen []uint64 // per segment: the counter this client's readers last saw

	tx, acq, commit []int64 // ns samples, one per transaction / acquire call / commit call
	due, late       []int64 // paced only: due offset of each tx sample, and start - due
	attempted       int
	failed          int
	userBytes       int64
	errs            []string

	traced bool
	spans  []span
	txSeq  uint32

	segs [bulkLocks]int
	offs [bulkRanges / bulkLocks]int
}

func (c *client) nextOp() op {
	o := c.ops[c.next%len(c.ops)]
	c.next++
	return o
}

// nextOwn draws from the workload's stream, or from the mixed stream
// where the workload is made of crash cycles and has none of its own.
func (c *client) nextOwn() op {
	if c.ops != nil {
		return c.nextOp()
	}
	return c.nextMixed()
}

func (c *client) nextMixed() op {
	o := c.mix[c.nextMix%len(c.mix)]
	c.nextMix++
	return o
}

func (c *client) nextOutage() op {
	o := c.out[c.nextOut%len(c.out)]
	c.nextOut++
	return o
}

func (c *client) fail(o op, err error) {
	c.failed++
	if len(c.errs) < 5 {
		c.errs = append(c.errs, fmt.Sprintf("client %d node %d seg %d kind %d: %v", c.id, o.node, o.seg, o.kind, err))
	}
}

func (c *client) span(k spanKind, start, end int64) {
	c.spans = append(c.spans, span{kind: k, client: uint8(c.id), tx: c.txSeq, start: start, end: end})
}

// segsOf lists the segments an op locks, ascending (ordered acquisition
// keeps multi-lock transactions deadlock-free).
func (c *client) segsOf(o op) []int {
	if o.kind != opBulk {
		c.segs[0] = int(o.seg)
		return c.segs[:1]
	}
	for k := range c.segs {
		c.segs[k] = c.lo + (int(o.seg)-c.lo+k)%c.n
	}
	s := c.segs[:]
	sort.Ints(s)
	return s
}

// exec runs one transaction and checks it against the model. due is the
// time the transaction was due (ns since the epoch) or negative in a
// closed loop; latency counts from it, so a stall charges the requests
// queued behind it.
func (r *rig) exec(c *client, o op, due int64) {
	c.attempted++
	c.txSeq++
	n := r.node(int(o.node))
	reg := r.regs[o.node]

	t0 := r.now()
	from := t0
	if due >= 0 {
		from = due
		c.late = append(c.late, t0-due)
		c.due = append(c.due, due)
	}
	tx := n.Begin(noRestore)
	t1 := r.now()

	var err error
	at := t1
	segs := c.segsOf(o)
	for _, s := range segs {
		if o.kind == opHotRead {
			err = tx.AcquireShared(uint32(s))
		} else {
			err = tx.Acquire(uint32(s))
		}
		t := r.now()
		c.acq = append(c.acq, t-at)
		if c.traced {
			c.span(spanAcquire, at, t)
		}
		at = t
		if err != nil {
			break
		}
	}
	if err == nil {
		err = r.body(c, o, tx, reg, segs)
	}
	t3 := r.now()
	if err != nil {
		_ = tx.Abort() // releases the locks; the failure is already counted
		c.fail(o, err)
		c.tx = append(c.tx, t3-from)
		return
	}
	_, err = tx.Commit(r.mode)
	t4 := r.now()
	c.commit = append(c.commit, t4-t3)
	c.tx = append(c.tx, t4-from)
	if c.traced {
		c.span(spanBegin, t0, t1)
		c.span(spanCommit, t3, t4)
		c.span(spanTx, t0, t4)
	}
	if err != nil {
		c.fail(o, fmt.Errorf("commit: %w", err))
	}
}

// body verifies and writes every segment of the op while its lock is
// held. The model is updated first and the node's image is written from
// it, so the two cannot drift by a generator bug.
func (r *rig) body(c *client, o op, tx *Tx, reg *Region, segs []int) error {
	count, size := o.writes()
	segLen := r.geo.segLen
	img := reg.Bytes()
	var v0, v1 int64
	for i, s := range segs {
		off := s * segLen
		nodeSeg, sh := img[off:off+segLen], r.model.seg(s)
		mu := &r.model.mu[s]
		if c.traced {
			v0 = r.now()
		}
		mu.Lock()
		if o.kind == opHotRead {
			err := checkReader(nodeSeg, sh, c.lastSeen[s])
			c.lastSeen[s] = headerCounter(nodeSeg)
			mu.Unlock()
			if c.traced {
				c.span(spanVerify, v0, r.now())
			}
			if err != nil {
				return err
			}
			continue
		}
		if err := checkWriter(nodeSeg, sh); err != nil {
			mu.Unlock()
			return err
		}
		offs := slotOffsets(c.offs[:0], segLen, o.salt+uint32(i), count, size)
		for k, p := range offs {
			fillPattern(sh[p:p+size], o.salt, i<<8|k)
		}
		putHeader(sh, headerCounter(sh)+1)
		if c.traced {
			v1 = r.now()
		}
		var err error
		for _, p := range offs {
			if err = tx.Write(reg, uint64(off+p), sh[p:p+size]); err != nil {
				break
			}
		}
		if err == nil {
			err = tx.Write(reg, uint64(off), sh[:hdrLen])
		}
		mu.Unlock()
		c.userBytes += int64(count*size + hdrLen)
		if c.traced {
			c.span(spanVerify, v0, v1)
			c.span(spanWrite, v1, r.now())
		}
		if err != nil {
			return fmt.Errorf("write: %w", err)
		}
	}
	return nil
}

// each runs fn once per client, each on its own goroutine, and waits.
func (r *rig) each(fn func(c *client)) {
	var wg sync.WaitGroup
	for _, c := range r.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			fn(c)
		}(c)
	}
	wg.Wait()
}

// runTimed is the closed loop: every client issues its next transaction
// as soon as the previous one returns, until d has passed.
func (r *rig) runTimed(d time.Duration) {
	end := r.now() + int64(d)
	r.each(func(c *client) {
		for r.now() < end {
			r.exec(c, c.nextOp(), -1)
		}
	})
}

// runMixed runs total transactions of the mixed stream, closed loop,
// split evenly over the clients.
func (r *rig) runMixed(total int) {
	per := total / len(r.clients)
	r.each(func(c *client) {
		for i := 0; i < per; i++ {
			r.exec(c, c.nextMixed(), -1)
		}
	})
}

// runPaced is the open loop: every client owns a pre-drawn schedule and
// issues each transaction at its due time, or at once if it is already
// late. run executes one transaction (r.exec in the rig, a fake in
// tests).
func runPaced(now func() int64, base int64, scheds [][]int64, run func(client int, due int64)) {
	var wg sync.WaitGroup
	for i, sched := range scheds {
		wg.Add(1)
		go func(i int, sched []int64) {
			defer wg.Done()
			for _, off := range sched {
				due := base + off
				waitUntil(now, due)
				run(i, due)
			}
		}(i, sched)
	}
	wg.Wait()
}

// waitUntil sleeps for most of the wait and yields through the rest:
// sleeping alone overshoots by a scheduler quantum, spinning alone
// would take a core from the system under test.
func waitUntil(now func() int64, due int64) {
	for {
		d := due - now()
		switch {
		case d <= 0:
			return
		case d > int64(150*time.Microsecond):
			time.Sleep(time.Duration(d) - 100*time.Microsecond)
		default:
			runtime.Gosched()
		}
	}
}
