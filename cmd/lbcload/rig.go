package main

import (
	"fmt"
	"strings"
	"time"
)

// config is everything a run is made from. The driver sets workload,
// seed, seconds and trace; the rest are the reference values, and only
// tests shrink them.
type config struct {
	workload string
	seed     int64
	seconds  float64
	clients  int
	geo      geometry

	warmup    int     // warm-up transactions per client, part of set-up
	streamLen int     // pre-generated ops per client and stream
	pacedRate float64 // paced: total due transactions per second
	cycle     cycleSizes
	epilogue  int // crash cycles after the windows of the other workloads
	minP99    int // fewest samples a p99 may rest on

	ring   bool // build the cluster with the in-program trace ring on
	local  bool // probe: one node, no store, no-flush commits; every op lands on node 0
	traced bool // record bench.* spans
}

// cycleSizes are the transaction counts of one crash cycle: mixed load,
// checkpoint, tail, crash, load on the survivors, restart.
type cycleSizes struct{ pre, tail, outage int }

const (
	victim = nodes - 1
	// restartsPerCycle crashes and restarts follow each checkpoint: the
	// checkpoint is what a cycle costs, the restarts are what it yields.
	restartsPerCycle = 3
	sloNS            = int64(10 * time.Millisecond)
	opTimeout        = 30 * time.Second
	ringSpanCap      = 1 << 16
)

// pacedRateRef is the frozen open-loop rate: the largest of
// 250/500/1000/2000/4000 tx/s at or below half of the mixed stream's
// closed-loop capacity on the reference host (about 9 k tx/s).
const pacedRateRef = 4000

func referenceConfig(workload string, seed int64, seconds float64, clients int) config {
	return config{
		workload: workload, seed: seed, seconds: seconds, clients: clients,
		geo: refGeometry, warmup: 1000, streamLen: 1 << 18, pacedRate: pacedRateRef,
		cycle: cycleSizes{pre: 3000, tail: 600, outage: 300}, epilogue: 4, minP99: 1000,
	}
}

// tally is a sum of program counters and phase times over nodes.
type tally struct {
	c     map[string]int64
	phase [numPhases]int64
}

func (t *tally) add(s Snapshot) {
	if t.c == nil {
		t.c = map[string]int64{}
	}
	for k, v := range s.Counters {
		t.c[k] += v
	}
	for p := 0; p < numPhases; p++ {
		t.phase[p] += int64(s.Phases[p])
	}
}

func (t tally) sub(o tally) tally {
	out := tally{c: map[string]int64{}}
	for k, v := range t.c {
		out.c[k] = v - o.c[k]
	}
	for p := range t.phase {
		out.phase[p] = t.phase[p] - o.phase[p]
	}
	return out
}

// cycleSamples holds one sample per checkpoint (ckptNS) or per restart
// (the rest) of the crash cycles.
type cycleSamples struct {
	recoverNS, firstCommitNS, crashNS, ckptNS []int64
	catchupRecords, logBytesAtRestart         []int64
}

func (a *cycleSamples) merge(b cycleSamples) {
	a.recoverNS, a.firstCommitNS = append(a.recoverNS, b.recoverNS...), append(a.firstCommitNS, b.firstCommitNS...)
	a.crashNS, a.ckptNS = append(a.crashNS, b.crashNS...), append(a.ckptNS, b.ckptNS...)
	a.catchupRecords = append(a.catchupRecords, b.catchupRecords...)
	a.logBytesAtRestart = append(a.logBytesAtRestart, b.logBytesAtRestart...)
}

// rig is one built cluster with its model and its clients.
type rig struct {
	cfg     config
	geo     geometry
	cl      *Cluster
	size    int // nodes in cl: 3, or 1 for the local probe, where every op lands on node 0
	mode    CommitMode
	regs    []*Region
	model   *shadow
	clients []*client
	epoch   time.Time

	eligible []uint16   // segments whose lock manager survives the victim
	carry    []Snapshot // counters of node incarnations that have crashed

	cycleSamples
	ckptWindows [][2]int64 // checkpoints inside a paced window
	captured    [][]byte   // every node's log as the last restart found it

	problems []string
}

func (r *rig) now() int64 { return int64(time.Since(r.epoch)) }

func (r *rig) node(i int) *Node { return r.cl.Node(i % r.size) }

func (r *rig) problem(format string, a ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, a...))
	}
}

// setup builds the cluster, maps the region, generates every stream
// from the seed, preloads every segment and warms up. Its wall time is
// setup_s.
func setup(cfg config) (*rig, error) {
	r := &rig{cfg: cfg, geo: cfg.geo, epoch: time.Now(), model: newShadow(cfg.geo), size: nodes, mode: flush}
	var err error
	switch {
	case cfg.local:
		r.size, r.mode = 1, noFlush
		r.cl, err = newLocalCluster()
	case cfg.ring:
		r.cl, err = newRingCluster(nodes, ringSpanCap)
	default:
		r.cl, err = newProductionCluster(nodes)
	}
	if err != nil {
		return nil, fmt.Errorf("start cluster: %w", err)
	}
	if err := r.cl.MapAll(regionID, r.geo.size()); err != nil {
		r.close()
		return nil, fmt.Errorf("map region: %w", err)
	}
	for l := 0; l < r.geo.segs; l++ {
		r.cl.AddSegmentAll(segment(uint32(l), uint64(l*r.geo.segLen), uint64(r.geo.segLen)))
	}
	if err := r.cl.Barrier(regionID); err != nil {
		r.close()
		return nil, fmt.Errorf("barrier: %w", err)
	}
	r.regs = make([]*Region, nodes)
	for i := range r.regs {
		r.regs[i] = regionOf(r.node(i))
	}
	for l, home := range lockHomes(nodes, r.geo.segs) {
		if home != victim {
			r.eligible = append(r.eligible, uint16(l))
		}
	}

	for i := 0; i < cfg.clients; i++ {
		g := newGenerator(r.geo, cfg.seed, i, cfg.clients)
		c := &client{id: i, lo: g.lo, n: g.n, lastSeen: make([]uint64, r.geo.segs), traced: cfg.traced}
		if cfg.workload != "crash" {
			c.ops = g.stream(cfg.workload, i, cfg.streamLen)
		}
		c.mix = g.stream("crash", i, cfg.streamLen/4)
		c.out = g.outage(r.eligible, cfg.streamLen/16)
		if cfg.workload == "paced" {
			sr := newRNG(cfg.seed, 1000+i)
			c.sched = schedule(&sr, cfg.pacedRate/float64(cfg.clients), int64(cfg.seconds*1e9))
		}
		r.clients = append(r.clients, c)
	}

	// Preload: every segment gets a valid header and its first ranges
	// from the node that will use it, so locks start where the workload
	// wants them. Then a fixed count of warm-up transactions; a count,
	// not a time, so that set-up time moves when the program does.
	r.each(func(c *client) {
		node := uint8(c.id % nodes)
		switch cfg.workload {
		case "private":
			node = 0
		case "bulk":
			node = uint8(c.id % 2)
		}
		for s := c.lo; s < c.lo+c.n; s++ {
			r.exec(c, op{kind: opPrivate, node: node, seg: uint16(s), salt: uint32(s)}, -1)
		}
		for s := c.id; s < r.geo.hot; s += cfg.clients {
			r.exec(c, op{kind: opPrivate, node: uint8(s % nodes), seg: uint16(s), salt: uint32(s)}, -1)
		}
	})
	r.each(func(c *client) {
		for i := 0; i < cfg.warmup; i++ {
			r.exec(c, c.nextOwn(), -1)
		}
	})
	for _, c := range r.clients {
		if c.failed > 0 {
			r.close()
			return nil, fmt.Errorf("set-up: %d of %d transactions failed: %s", c.failed, c.attempted, strings.Join(c.errs, "; "))
		}
		c.reset()
	}
	return r, nil
}

// reset drops what set-up recorded and sizes the sample buffers for a
// window, so that the measured loop appends without growing them.
func (c *client) reset() {
	const room = 1 << 18
	c.tx, c.commit = make([]int64, 0, room), make([]int64, 0, room)
	c.acq = make([]int64, 0, 2*room)
	c.due, c.late = nil, nil
	if c.sched != nil {
		c.due, c.late = make([]int64, 0, len(c.sched)), make([]int64, 0, len(c.sched))
	}
	if c.traced {
		c.spans = make([]span, 0, 4*room)
	}
	c.attempted, c.failed, c.userBytes, c.errs = 0, 0, 0, nil
}

func (r *rig) close() {
	if r.cl != nil {
		r.cl.Close()
		r.cl = nil
	}
}

// tally sums the counters of every live node and of the incarnations
// that crashed earlier.
func (r *rig) tally() tally {
	var t tally
	for _, s := range r.carry {
		t.add(s)
	}
	for i := 0; i < r.size; i++ {
		if n := r.cl.Node(i); n != nil {
			t.add(n.Stats().Snapshot())
		}
	}
	return t
}

func (r *rig) storeTally() tally {
	var t tally
	t.add(r.cl.Store().Stats().Snapshot())
	return t
}

// window runs the workload's measured part for about d and returns how
// long it took.
func (r *rig) window(d time.Duration) time.Duration {
	start := r.now()
	switch r.cfg.workload {
	case "paced":
		r.pacedWindow(d)
	case "crash":
		for r.now()-start < int64(d) {
			if err := r.crashCycle(r.cfg.cycle, false); err != nil {
				r.problem("crash cycle: %v", err)
				break
			}
		}
	default:
		r.runTimed(d)
	}
	return time.Duration(r.now() - start)
}

// pacedWindow runs the open loop while node 0 checkpoints once, in the
// middle of the window.
func (r *rig) pacedWindow(d time.Duration) {
	done := make(chan struct{})
	ckpt := time.AfterFunc(d/2, func() {
		defer close(done)
		s := r.now()
		if err := r.cl.Checkpoint(0, opTimeout); err != nil {
			r.problem("checkpoint: %v", err)
			return
		}
		r.ckptWindows = append(r.ckptWindows, [2]int64{s, r.now()})
	})
	scheds := make([][]int64, len(r.clients))
	for i, c := range r.clients {
		scheds[i] = c.sched
	}
	runPaced(r.now, r.now(), scheds, func(i int, due int64) {
		c := r.clients[i]
		r.exec(c, c.nextOp(), due)
	})
	if !ckpt.Stop() {
		<-done
	}
}

// quiesce waits until every node has installed every update it has
// received. A restarted victim is left out: frames that reach it before
// its catch-up ends stay parked after catch-up has applied the same
// records from the logs, and Node.Quiesce then times out until every
// such lock is written again (README.md, "Defects the rig steps
// around"). converge does not depend on it.
func (r *rig) quiesce() error {
	for i := 0; i < r.size; i++ {
		if i == victim && len(r.recoverNS) > 0 {
			continue
		}
		if err := r.cl.Node(i).Quiesce(opTimeout); err != nil {
			return fmt.Errorf("node %d: %w", i, err)
		}
	}
	return nil
}

// crashCycle is: mixed load on three nodes, checkpoint, a tail of
// commits the checkpoint does not cover, and then restartsPerCycle
// times: crash of the last node, load on the survivors, restart, first
// commit on the restarted node. After each restart the node's image
// must equal the model without any further acquire: every acknowledged
// commit was durable and catch-up replayed it.
func (r *rig) crashCycle(sz cycleSizes, capture bool) error {
	r.runMixed(sz.pre)
	t := r.now()
	if err := r.cl.Checkpoint(0, opTimeout); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	r.ckptNS = append(r.ckptNS, r.now()-t)
	r.runMixed(sz.tail)
	// Step-around for a defect this benchmark found (README.md, "Defects
	// the rig steps around"): a restarted node never satisfies the
	// acquire interlock of a lock whose last write lies below the
	// checkpoint cut, because catch-up seeds applied sequences only from
	// records still in the logs. Writing every segment once above the
	// cut keeps the cycle free of wedged acquires.
	r.each(func(c *client) {
		for s := c.id; s < r.geo.segs; s += len(r.clients) {
			r.exec(c, op{kind: opHotWrite, node: uint8(s % nodes), seg: uint16(s), salt: uint32(c.nextMix + s)}, -1)
		}
	})
	for i := 0; i < restartsPerCycle; i++ {
		if err := r.crashRestart(sz.outage, capture && i == restartsPerCycle-1); err != nil {
			return err
		}
	}
	return nil
}

func (r *rig) crashRestart(outage int, capture bool) error {
	if err := r.quiesce(); err != nil {
		return err
	}
	var logBytes int64
	r.captured = r.captured[:0]
	for i := 0; i < r.size; i++ {
		n, err := r.cl.Log(i).Size()
		if err != nil {
			return fmt.Errorf("log %d size: %w", i, err)
		}
		logBytes += n
		if capture {
			img, err := readLog(r.cl.Log(i))
			if err != nil {
				return fmt.Errorf("capture log %d: %w", i, err)
			}
			r.captured = append(r.captured, img)
		}
	}
	r.logBytesAtRestart = append(r.logBytesAtRestart, logBytes)

	r.carry = append(r.carry, r.cl.Node(victim).Stats().Snapshot())
	t := r.now()
	if err := r.cl.Crash(victim); err != nil {
		return fmt.Errorf("crash: %w", err)
	}
	r.crashNS = append(r.crashNS, r.now()-t)

	// The survivors keep committing, on the victim's former locks too.
	r.each(func(c *client) {
		for i := 0; i < outage/len(r.clients); i++ {
			r.exec(c, c.nextOutage(), -1)
		}
	})
	r.settleSends()

	t = r.now()
	if err := r.cl.Restart(victim); err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	r.recoverNS = append(r.recoverNS, r.now()-t)
	r.regs[victim] = regionOf(r.cl.Node(victim))
	r.catchupRecords = append(r.catchupRecords, r.cl.Node(victim).Stats().Snapshot().Counters[ctrCatchupRecords])

	c := r.clients[0]
	o := c.nextMixed()
	o.node = victim
	if o.kind == opHotRead {
		o.kind = opHotWrite
	}
	r.exec(c, o, -1)
	r.firstCommitNS = append(r.firstCommitNS, r.now()-t)

	if err := r.model.diffImage(r.regs[victim].Bytes()); err != nil {
		return fmt.Errorf("restarted node after restart %d: %w", len(r.recoverNS), err)
	}
	return nil
}

// settleSends waits until the survivors have given up on the update
// frames they queued for the crashed victim: until their send_errors
// counters have been still for 100 ms, three times what one failing
// send takes. It steps around a defect this benchmark found (README.md,
// "Defects the rig steps around"): such a frame is otherwise delivered
// to the victim's next incarnation while it catches up, installed
// beside the replay, and can put an older write over a newer one.
func (r *rig) settleSends() {
	const quiet = 100 * time.Millisecond
	var last int64 = -1
	since := time.Now()
	for time.Since(since) < quiet {
		var errs int64
		for i := 0; i < victim; i++ {
			errs += r.cl.Node(i).Stats().Snapshot().Counters[ctrSendErrors]
		}
		if errs != last {
			last, since = errs, time.Now()
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// converge makes every node read every segment under its lock, which
// the acquire interlock only grants once every committed update to the
// segment is installed, and then compares all images with the model.
func (r *rig) converge() error {
	for i := 0; i < r.size; i++ {
		n := r.cl.Node(i)
		for s := 0; s < r.geo.segs; s++ {
			tx := n.Begin(noRestore)
			if err := tx.AcquireShared(uint32(s)); err != nil {
				_ = tx.Abort()
				return fmt.Errorf("converge: node %d lock %d: %w", i, s, err)
			}
			if _, err := tx.Commit(noFlush); err != nil {
				return fmt.Errorf("converge: node %d lock %d: %w", i, s, err)
			}
		}
	}
	if err := r.quiesce(); err != nil {
		return err
	}
	for i := 0; i < r.size; i++ {
		if err := r.model.diffImage(r.regs[i].Bytes()); err != nil {
			return fmt.Errorf("node %d: %w", i, err)
		}
	}
	return nil
}
