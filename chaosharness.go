package lbc

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"lbc/internal/chaos"
	"lbc/internal/coherency"
	"lbc/internal/fault"
	"lbc/internal/membership"
	"lbc/internal/metrics"
	"lbc/internal/netproto"
	"lbc/internal/rvm"
	"lbc/internal/store"
	"lbc/internal/wal"
)

// This file is the chaos scenario engine: named, seed-reproducible
// fault schedules driven over a real cluster, each ending in the
// harness's three invariants (converged images, gap-free lock chains,
// merge+recovery equivalence). cmd/chaosrun is the CLI front end; the
// internal/chaos tests run every scenario twice per seed and require
// bit-identical digests.
//
// Determinism rules the scenarios follow:
//
//   - One driver goroutine issues every transaction, so each link sees
//     its update messages in a fixed order and the injector's per-link
//     RNG replays the same schedule for the same seed.
//   - Write payloads are regenerated from (seed, round, lock), never
//     from shared mutable state.
//   - Crashes and partitions happen only between rounds, when no
//     transaction or token pass is in flight.
//   - During a partition, writers are restricted to nodes that already
//     hold the needed tokens; during a crash, locks managed by the
//     down node are skipped (their manager is unreachable).

// ChaosReport summarizes one scenario run. Two runs with the same
// scenario and seed must produce identical Digest values.
type ChaosReport struct {
	Scenario  string
	Seed      int64
	Commits   int               // transactions committed by the driver
	Records   int               // distinct committed records across all logs
	Checksums map[uint32]uint64 // region id -> converged image checksum
	Digest    uint64            // checksum over images + record population
	Faults    map[string]int64  // injector counters (informational, not in Digest)
	Dists     map[string]Dist   // latency/occupancy quantiles (informational, not in Digest)
}

// Dist summarizes one metrics histogram aggregated across the surviving
// nodes. Wall-clock distributions vary run to run, so they stay out of
// the determinism Digest.
type Dist struct {
	Count int64
	P50   int64
	P90   int64
	P99   int64
}

func (rep *ChaosReport) finish(images map[uint32][]byte, records int) {
	rep.Records = records
	rep.Checksums = map[uint32]uint64{}
	ids := make([]uint32, 0, len(images))
	for id := range images {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var h uint64 = 0xCBF29CE484222325
	mix := func(v uint64) {
		for s := 0; s < 64; s += 8 {
			h ^= (v >> s) & 0xFF
			h *= 0x100000001B3
		}
	}
	for _, id := range ids {
		ck := chaos.ImageChecksum(images[id])
		rep.Checksums[id] = ck
		mix(uint64(id))
		mix(ck)
	}
	mix(uint64(records))
	rep.Digest = h
}

// String renders the one-line summary chaosrun prints.
func (rep *ChaosReport) String() string {
	return fmt.Sprintf("scenario=%s seed=%d commits=%d records=%d digest=%016x",
		rep.Scenario, rep.Seed, rep.Commits, rep.Records, rep.Digest)
}

// ChaosScenarios lists the named scenarios RunChaosScenario accepts.
func ChaosScenarios() []string {
	return []string{"partition-heal", "crash-restart", "store-failover", "evict-rejoin", "migrate-evict", "drop-compressed", "corrupt-log-repair"}
}

// RunChaosScenario executes one named scenario under the given seed
// and returns its report. Errors carry the seed, so a failure log line
// is sufficient to reproduce the run (cmd/chaosrun -seed N).
func RunChaosScenario(name string, seed int64) (*ChaosReport, error) {
	var rep *ChaosReport
	var err error
	switch name {
	case "partition-heal":
		rep, err = chaosPartitionHeal(seed)
	case "crash-restart":
		rep, err = chaosCrashRestart(seed)
	case "store-failover":
		rep, err = chaosStoreFailover(seed)
	case "evict-rejoin":
		rep, err = chaosEvictRejoin(seed)
	case "migrate-evict":
		rep, err = chaosMigrateEvict(seed)
	case "drop-compressed":
		rep, err = chaosDropCompressed(seed)
	case "corrupt-log-repair":
		rep, err = chaosCorruptLogRepair(seed)
	default:
		return nil, fmt.Errorf("lbc: unknown chaos scenario %q (have %v)", name, ChaosScenarios())
	}
	if err != nil {
		return nil, fmt.Errorf("chaos scenario %s seed=%d: %w", name, seed, err)
	}
	return rep, nil
}

// --- Shared machinery ----------------------------------------------------

const (
	chaosRegion  = RegionID(1)
	chaosLocks   = 4
	chaosSegLen  = 1024
	chaosPayload = 48
)

// chaosData regenerates the payload for (round, lock) from the seed —
// retriable and identical across runs. The payload is a seed-unique
// 12-byte pattern repeated across the buffer: unique enough that a
// misapplied record diverges the images, compressible enough that the
// batcher's DEFLATE frame (MsgUpdateBatchC) actually ships — fully
// random payloads would make every scenario silently fall back to
// plain frames and never exercise the compressed wire path.
func chaosData(seed int64, round, lock int) []byte {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(round)*8191 + int64(lock)*131 + 7))
	pat := make([]byte, 12)
	rng.Read(pat)
	b := make([]byte, chaosPayload)
	for i := range b {
		b[i] = pat[i%len(pat)]
	}
	return b
}

// chaosWrite runs one write transaction on node n under lock l.
func chaosWrite(n *Node, seed int64, round, lock int) error {
	tx := n.Begin(NoRestore)
	if err := tx.Acquire(uint32(lock)); err != nil {
		return fmt.Errorf("round %d lock %d acquire on node %d: %w", round, lock, n.Self(), err)
	}
	reg := n.RVM().Region(chaosRegion)
	data := chaosData(seed, round, lock)
	off := uint64(lock)*chaosSegLen + uint64(round%(chaosSegLen/chaosPayload))*chaosPayload
	if err := tx.Write(reg, off, data); err != nil {
		tx.Abort()
		return err
	}
	if _, err := tx.Commit(NoFlush); err != nil {
		return fmt.Errorf("round %d lock %d commit on node %d: %w", round, lock, n.Self(), err)
	}
	return nil
}

// chaosConverge is the quiesce barrier: acquiring every lock on every
// live node forces each interlock (and the pull-on-stall path) to
// catch up through the last write before the lock is granted.
func chaosConverge(c *Cluster) error {
	for i := 0; i < c.Size(); i++ {
		if c.Down(i) {
			continue
		}
		n := c.Node(i)
		for l := 0; l < chaosLocks; l++ {
			tx := n.Begin(NoRestore)
			if err := tx.Acquire(uint32(l)); err != nil {
				return fmt.Errorf("converge: lock %d on node %d: %w", l, n.Self(), err)
			}
			if err := tx.Abort(); err != nil {
				return err
			}
		}
	}
	return nil
}

// chaosCluster builds the 3-node store-backed fabric the network
// scenarios share.
func chaosCluster(inj *chaos.Injector, extra ...Option) (*Cluster, error) {
	opts := append([]Option{WithStore(), WithChaos(inj),
		WithAcquireTimeout(10 * time.Second), WithGroupCommit()}, extra...)
	c, err := NewLocalCluster(3, opts...)
	if err != nil {
		return nil, err
	}
	if err := c.MapAll(chaosRegion, chaosLocks*chaosSegLen); err != nil {
		c.Close()
		return nil, err
	}
	for l := 0; l < chaosLocks; l++ {
		c.AddSegmentAll(Segment{LockID: uint32(l), Region: chaosRegion,
			Off: uint64(l) * chaosSegLen, Len: chaosSegLen})
	}
	if err := c.Barrier(chaosRegion); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// chaosCheck flushes reorder hold-backs, converges every cache, then
// runs all three invariants and fills in the report.
func chaosCheck(c *Cluster, rep *ChaosReport) error {
	if err := c.FlushChaos(); err != nil {
		return err
	}
	if err := chaosConverge(c); err != nil {
		return err
	}
	images := map[uint32]map[uint32][]byte{}
	for i := 0; i < c.Size(); i++ {
		if c.Down(i) {
			continue
		}
		reg := c.Node(i).RVM().Region(chaosRegion)
		img := append([]byte(nil), reg.Bytes()...)
		images[uint32(c.Node(i).Self())] = map[uint32][]byte{uint32(chaosRegion): img}
	}
	if err := chaos.CheckConverged(images); err != nil {
		return err
	}

	logs := make([]wal.Device, 0, c.Size())
	for i := 0; i < c.Size(); i++ {
		if c.Log(i) != nil {
			logs = append(logs, c.Log(i))
		}
	}
	txs, err := chaos.ReadLogRecords(logs...)
	if err != nil {
		return err
	}
	if err := chaos.CheckLockChains(txs); err != nil {
		return err
	}

	var ref []byte
	for i := 0; i < c.Size(); i++ {
		if !c.Down(i) {
			ref = images[uint32(c.Node(i).Self())][uint32(chaosRegion)]
			break
		}
	}
	want := map[uint32][]byte{uint32(chaosRegion): ref}
	if err := chaos.CheckMergeRecovery(logs, want); err != nil {
		return err
	}

	type identity struct {
		node uint32
		seq  uint64
	}
	seen := map[identity]bool{}
	for _, tx := range txs {
		seen[identity{tx.Node, tx.TxSeq}] = true
	}
	rep.finish(want, len(seen))
	rep.Dists = chaosDists(c)
	return nil
}

// chaosDists merges the metrics histograms of every surviving node and
// reports their quantiles.
func chaosDists(c *Cluster) map[string]Dist {
	agg := metrics.NewStats()
	for i := 0; i < c.Size(); i++ {
		if !c.Down(i) {
			agg.Merge(c.Node(i).Stats())
		}
	}
	out := map[string]Dist{}
	for name, h := range agg.Hists() {
		out[name] = Dist{
			Count: h.Count,
			P50:   h.Quantile(0.5),
			P90:   h.Quantile(0.9),
			P99:   h.Quantile(0.99),
		}
	}
	return out
}

// --- Scenario 1: partition heal ------------------------------------------

// chaosPartitionHeal drives writes under drop/dup/reorder faults,
// isolates node 1 behind a symmetric partition while the majority
// keeps writing, heals, and verifies the minority catches back up to
// a converged state.
func chaosPartitionHeal(seed int64) (*ChaosReport, error) {
	inj := chaos.New(chaos.Config{
		Seed:        seed,
		DropProb:    0.15,
		DupProb:     0.10,
		ReorderProb: 0.10,
	})
	c, err := chaosCluster(inj)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	rep := &ChaosReport{Scenario: "partition-heal", Seed: seed}

	round := 0
	// Phase A: rotating writers, every lock, faults live.
	for ; round < 5; round++ {
		for l := 0; l < chaosLocks; l++ {
			w := (round + l) % c.Size()
			if err := chaosWrite(c.Node(w), seed, round, l); err != nil {
				return nil, err
			}
			rep.Commits++
		}
	}
	// Positioning: node index 1 takes every token, so it can keep
	// writing once the minority side is cut off.
	for l := 0; l < chaosLocks; l++ {
		if err := chaosWrite(c.Node(1), seed, round, l); err != nil {
			return nil, err
		}
		rep.Commits++
	}
	round++

	// Phase B: node id 1 is partitioned away; the majority holder
	// writes on. Updates toward the minority fail visibly; drops
	// toward node id 3 are recovered by pull-on-stall.
	inj.Partition([]netproto.NodeID{1}, []netproto.NodeID{2, 3})
	for end := round + 4; round < end; round++ {
		for l := 0; l < chaosLocks; l++ {
			if err := chaosWrite(c.Node(1), seed, round, l); err != nil {
				return nil, err
			}
			rep.Commits++
		}
	}
	// Those commits only queued their updates on the per-peer senders.
	// Heal once a sender has actually run into the partition, or the
	// scenario may never exercise it.
	deadline := time.Now().Add(15 * time.Second)
	for inj.Stats()["partitioned_sends"] == 0 {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("partition never blocked a send")
		}
		time.Sleep(time.Millisecond)
	}
	inj.Heal()

	// Phase C: full rotation again; node 1's first acquires pull the
	// partition-era history from the server logs.
	for end := round + 4; round < end; round++ {
		for l := 0; l < chaosLocks; l++ {
			w := (round + l) % c.Size()
			if err := chaosWrite(c.Node(w), seed, round, l); err != nil {
				return nil, err
			}
			rep.Commits++
		}
	}

	if err := chaosCheck(c, rep); err != nil {
		return nil, err
	}
	rep.Faults = inj.Stats()
	return rep, nil
}

// --- Scenario 2: crash / restart -----------------------------------------

// chaosCrashRestart kills node 3 mid-run (its tokens relocate to
// survivors), keeps committing on the remaining pair, then restarts
// it: real RVM log resumption plus server-log catch-up must bring its
// cache back to the converged image before it writes again.
func chaosCrashRestart(seed int64) (*ChaosReport, error) {
	inj := chaos.New(chaos.Config{
		Seed:        seed,
		DropProb:    0.05,
		DupProb:     0.05,
		ReorderProb: 0.05,
	})
	c, err := chaosCluster(inj)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	rep := &ChaosReport{Scenario: "crash-restart", Seed: seed}

	round := 0
	for ; round < 4; round++ {
		for l := 0; l < chaosLocks; l++ {
			w := (round + l) % c.Size()
			if err := chaosWrite(c.Node(w), seed, round, l); err != nil {
				return nil, err
			}
			rep.Commits++
		}
	}
	// Position some tokens at the crash target so the relocation path
	// is actually exercised.
	for l := 0; l < chaosLocks; l += 2 {
		if err := chaosWrite(c.Node(2), seed, round, l); err != nil {
			return nil, err
		}
		rep.Commits++
	}
	round++

	if err := c.Crash(2); err != nil {
		return nil, err
	}
	// Locks homed at the down node are skipped: their manager is
	// unreachable by design.
	for end := round + 4; round < end; round++ {
		for l := 0; l < chaosLocks; l++ {
			if c.homeIndex(uint32(l)) == 2 {
				continue
			}
			w := (round + l) % 2 // survivors only
			if err := chaosWrite(c.Node(w), seed, round, l); err != nil {
				return nil, err
			}
			rep.Commits++
		}
	}

	if err := c.Restart(2); err != nil {
		return nil, err
	}
	for end := round + 4; round < end; round++ {
		for l := 0; l < chaosLocks; l++ {
			w := (round + l) % c.Size()
			if err := chaosWrite(c.Node(w), seed, round, l); err != nil {
				return nil, err
			}
			rep.Commits++
		}
	}

	if err := chaosCheck(c, rep); err != nil {
		return nil, err
	}
	rep.Faults = inj.Stats()
	return rep, nil
}

// --- Scenario 4: live eviction + rejoin ----------------------------------

// chaosAwaitAcks waits until no live node suspects another live node:
// the probe/ack exchanges triggered by the last detector tick have
// drained, so the next clock advance accumulates suspicion only
// against the dead. Without this barrier a slow ack could let two live
// survivors evict each other.
func chaosAwaitAcks(c *Cluster, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		clear := true
		for i := 0; i < c.Size(); i++ {
			if c.Down(i) {
				continue
			}
			mon := c.Membership(i)
			for j := 0; j < c.Size(); j++ {
				if i == j || c.Down(j) {
					continue
				}
				if mon.Suspects(c.ids[j]) != 0 {
					clear = false
				}
			}
		}
		if clear {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("live-pair suspicions did not clear within %v", timeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// chaosEvictRejoin is the live-failure scenario: no supervisor token
// fiat anywhere. Node index 2 takes every lock token and is killed
// abruptly mid-workload; the survivors' failure detectors (driven
// deterministically off one manual clock) evict it, reclaim all four
// tokens by re-minting at the highest logged sequence, and keep
// committing — including on locks the dead node held and on locks it
// managed. The node then rejoins through the two-phase membership
// handshake plus server-log catch-up, and a final full-rotation phase
// plus the three invariants prove nothing committed was lost and every
// cache converged, without a cluster restart.
func chaosEvictRejoin(seed int64) (*ChaosReport, error) {
	inj := chaos.New(chaos.Config{
		Seed:        seed,
		DropProb:    0.05,
		DupProb:     0.05,
		ReorderProb: 0.05,
	})
	clk := membership.NewManualClock()
	c, err := chaosCluster(inj, WithMembership(MembershipOptions{
		SuspectAfter: 500 * time.Millisecond,
		EvictAfter:   3,
		Clock:        clk, // ticked explicitly below; no wall-clock ticker
	}))
	if err != nil {
		return nil, err
	}
	defer c.Close()
	rep := &ChaosReport{Scenario: "evict-rejoin", Seed: seed}

	round := 0
	// Phase A: rotating writers, every lock, faults live.
	for ; round < 4; round++ {
		for l := 0; l < chaosLocks; l++ {
			w := (round + l) % c.Size()
			if err := chaosWrite(c.Node(w), seed, round, l); err != nil {
				return nil, err
			}
			rep.Commits++
		}
	}
	// Position every token at the kill target: reclaim must re-mint
	// all of them, not repair a queue to a surviving holder.
	for l := 0; l < chaosLocks; l++ {
		if err := chaosWrite(c.Node(2), seed, round, l); err != nil {
			return nil, err
		}
		rep.Commits++
	}
	round++

	if err := c.Kill(2); err != nil {
		return nil, err
	}

	// Detection: each advance pushes every peer past SuspectAfter; the
	// live pair's probe/acks clear each other before the next advance,
	// so only the dead node accumulates the EvictAfter suspicions.
	// Eviction normally lands on the third tick, but a frame the victim
	// flushed while dying can still be queued at a survivor and count as
	// liveness evidence against an early tick, so the loop runs until
	// the detectors converge rather than a fixed count. The tick count
	// never feeds the digest.
	evictedEverywhere := func() bool {
		for i := 0; i < c.Size(); i++ {
			if c.Down(i) || i == 2 {
				continue
			}
			if !c.Membership(i).Evicted(c.ids[2]) {
				return false
			}
		}
		return true
	}
	for tick := 0; tick < 12 && !evictedEverywhere(); tick++ {
		clk.Advance(600 * time.Millisecond)
		c.TickMembership()
		if err := chaosAwaitAcks(c, 5*time.Second); err != nil {
			return nil, err
		}
	}
	if err := c.AwaitEvicted(2, 5*time.Second); err != nil {
		return nil, err
	}
	if err := c.AwaitLiveTokens(10 * time.Second); err != nil {
		return nil, err
	}

	// Phase B: the survivors keep committing on every lock — the ones
	// whose tokens were re-minted and the ones whose manager died (its
	// stand-in routes them now).
	for end := round + 4; round < end; round++ {
		for l := 0; l < chaosLocks; l++ {
			w := (round + l) % 2 // survivors only
			if err := chaosWrite(c.Node(w), seed, round, l); err != nil {
				return nil, err
			}
			rep.Commits++
		}
	}

	// Rejoin: two-phase membership handshake around a server-log
	// catch-up; on return the survivors have readmitted the node.
	if err := c.Rejoin(2); err != nil {
		return nil, err
	}

	// Phase C: full rotation again, including the rejoined node and the
	// locks it manages.
	for end := round + 4; round < end; round++ {
		for l := 0; l < chaosLocks; l++ {
			w := (round + l) % c.Size()
			if err := chaosWrite(c.Node(w), seed, round, l); err != nil {
				return nil, err
			}
			rep.Commits++
		}
	}

	if err := chaosCheck(c, rep); err != nil {
		return nil, err
	}
	rep.Faults = inj.Stats()
	return rep, nil
}

// --- Scenario 5: lock-home migration under eviction churn ----------------

// chaosMigrateEvict runs the full sharded coherency plane (lock-home
// migration + interest-routed updates) through an eviction/rejoin
// cycle. Node index 2 dominates the demand on every lock until the
// homes migrate to it, then it is killed holding every token AND the
// migrated mint authority. The survivors' detectors evict it, which
// must drop the migration overrides (routing reverts to the ring birth
// homes), purge its interest registrations, and re-mint the tokens at
// the highest logged sequence — the per-lock chains stay gap-free
// across both the home move and the reclaim. After the node rejoins
// (CatchUp re-registers its interest from its own log), a full
// rotation plus the three invariants close out the run.
func chaosMigrateEvict(seed int64) (*ChaosReport, error) {
	inj := chaos.New(chaos.Config{
		Seed:        seed,
		DropProb:    0.05,
		DupProb:     0.05,
		ReorderProb: 0.05,
	})
	clk := membership.NewManualClock()
	c, err := chaosCluster(inj,
		WithLockMigration(), WithInterestRouting(),
		WithMembership(MembershipOptions{
			SuspectAfter: 500 * time.Millisecond,
			EvictAfter:   3,
			Clock:        clk,
		}))
	if err != nil {
		return nil, err
	}
	defer c.Close()
	rep := &ChaosReport{Scenario: "migrate-evict", Seed: seed}

	round := 0
	// Phase A: rotating writers seed every node's interest in every
	// lock and give each home a baseline demand count.
	for ; round < 3; round++ {
		for l := 0; l < chaosLocks; l++ {
			w := (round + l) % c.Size()
			if err := chaosWrite(c.Node(w), seed, round, l); err != nil {
				return nil, err
			}
			rep.Commits++
		}
	}

	// Phase B: node index 2 generates two thirds of each lock's token
	// bounces (demand is counted per request reaching the home, so the
	// interleaved minority writers are what keep the token moving and
	// the demand visible). Every lock not birth-homed at node 2 crosses
	// the migration threshold and hands its home over mid-phase.
	for end := round + 6; round < end; round++ {
		for l := 0; l < chaosLocks; l++ {
			for slot := 0; slot < 4; slot++ {
				w := 2
				switch slot {
				case 1:
					w = 0
				case 3:
					w = 1
				}
				if err := chaosWrite(c.Node(w), seed, round, l); err != nil {
					return nil, err
				}
				rep.Commits++
			}
		}
	}
	// The handoff itself is asynchronous; wait for it without
	// committing (the commit schedule must stay seed-deterministic). A
	// dropped handoff message aborts that attempt, but phase B generated
	// demand for several re-evaluations per lock.
	migCount := func() int64 {
		var n int64
		for i := 0; i < c.Size(); i++ {
			if !c.Down(i) {
				n += c.Node(i).Stats().Counter(metrics.CtrLockMigrations)
			}
		}
		return n
	}
	deadline := time.Now().Add(15 * time.Second)
	for migCount() == 0 {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("no lock home migrated under 2x dominant demand")
		}
		time.Sleep(time.Millisecond)
	}

	// Position every token at the migration target, then kill it: the
	// survivors must recover tokens AND home authority with no help.
	for l := 0; l < chaosLocks; l++ {
		if err := chaosWrite(c.Node(2), seed, round, l); err != nil {
			return nil, err
		}
		rep.Commits++
	}
	round++
	if err := c.Kill(2); err != nil {
		return nil, err
	}

	// Detection, as in evict-rejoin: advance the manual clock until the
	// survivors agree the dead node is out, then wait for the token
	// re-mint. Eviction also drops every migration override, so lock
	// routing falls back to the ring birth homes.
	evictedEverywhere := func() bool {
		for i := 0; i < c.Size(); i++ {
			if c.Down(i) || i == 2 {
				continue
			}
			if !c.Membership(i).Evicted(c.ids[2]) {
				return false
			}
		}
		return true
	}
	for tick := 0; tick < 12 && !evictedEverywhere(); tick++ {
		clk.Advance(600 * time.Millisecond)
		c.TickMembership()
		if err := chaosAwaitAcks(c, 5*time.Second); err != nil {
			return nil, err
		}
	}
	if err := c.AwaitEvicted(2, 5*time.Second); err != nil {
		return nil, err
	}
	if err := c.AwaitLiveTokens(10 * time.Second); err != nil {
		return nil, err
	}

	// Phase C: survivors write every lock — including the ones whose
	// home had migrated to the dead node and just reverted.
	for end := round + 4; round < end; round++ {
		for l := 0; l < chaosLocks; l++ {
			w := (round + l) % 2 // survivors only
			if err := chaosWrite(c.Node(w), seed, round, l); err != nil {
				return nil, err
			}
			rep.Commits++
		}
	}

	// Rejoin: membership handshake + server-log catch-up; CatchUp
	// re-registers the node's interest from its own logged writes.
	if err := c.Rejoin(2); err != nil {
		return nil, err
	}

	// Phase D: full rotation again, routed updates reaching the
	// rejoined node once more.
	for end := round + 4; round < end; round++ {
		for l := 0; l < chaosLocks; l++ {
			w := (round + l) % c.Size()
			if err := chaosWrite(c.Node(w), seed, round, l); err != nil {
				return nil, err
			}
			rep.Commits++
		}
	}

	if err := chaosCheck(c, rep); err != nil {
		return nil, err
	}
	rep.Faults = inj.Stats()
	var aborted int64
	for i := 0; i < c.Size(); i++ {
		if !c.Down(i) {
			aborted += c.Node(i).Stats().Counter(metrics.CtrLockMigrationsAborted)
		}
	}
	rep.Faults["lock_migrations"] = migCount()
	rep.Faults["lock_migrations_aborted"] = aborted
	return rep, nil
}

// --- Scenario 3: storage failover ----------------------------------------

// chaosStoreFailover commits through a mirrored storage pair while a
// proxy injects connection drops, then kills the primary entirely;
// the failover client re-homes to the backup, and the backup's log
// must hold every committed record, recovering to the exact committed
// image.
func chaosStoreFailover(seed int64) (*ChaosReport, error) {
	rep := &ChaosReport{Scenario: "store-failover", Seed: seed}

	pair, err := store.NewReplicaPair("127.0.0.1:0", "127.0.0.1:0", store.ServerOptions{})
	if err != nil {
		return nil, err
	}
	defer pair.Close()
	proxy, err := chaos.NewProxy(pair.Primary.Addr())
	if err != nil {
		return nil, err
	}
	defer proxy.Close()

	cli, err := store.DialFailover(proxy.Addr(), pair.Backup.Addr())
	if err != nil {
		return nil, err
	}
	defer cli.Close()

	r, err := rvm.Open(rvm.Options{Node: 1, Log: cli.LogDevice(1), Data: cli, GroupCommit: true})
	if err != nil {
		return nil, err
	}
	reg, err := r.Map(rvm.RegionID(chaosRegion), chaosLocks*chaosSegLen)
	if err != nil {
		return nil, err
	}

	commit := func(round, lock int) error {
		tx := r.Begin(rvm.NoRestore)
		data := chaosData(seed, round, lock)
		off := uint64(lock)*chaosSegLen + uint64(round%(chaosSegLen/chaosPayload))*chaosPayload
		if err := tx.SetRange(reg, off, uint32(len(data))); err != nil {
			return err
		}
		copy(reg.Bytes()[off:], data)
		if _, err := tx.Commit(rvm.NoFlush); err != nil {
			return fmt.Errorf("round %d lock %d: %w", round, lock, err)
		}
		rep.Commits++
		return nil
	}

	round := 0
	for ; round < 3; round++ {
		for l := 0; l < chaosLocks; l++ {
			if err := commit(round, l); err != nil {
				return nil, err
			}
		}
	}
	// Transient connection drop: the failover client re-dials through
	// the still-running proxy and the same request succeeds.
	proxy.Cut()
	for ; round < 6; round++ {
		for l := 0; l < chaosLocks; l++ {
			if err := commit(round, l); err != nil {
				return nil, err
			}
		}
	}
	// Primary death: proxy gone, server gone; the client's next call
	// walks its address ring to the backup, which holds the full
	// mirrored log.
	proxy.Close()
	pair.FailPrimary()
	for ; round < 9; round++ {
		for l := 0; l < chaosLocks; l++ {
			if err := commit(round, l); err != nil {
				return nil, err
			}
		}
	}

	// Every committed record must be on the backup, exactly once after
	// identity dedup, and replaying them must reproduce the image.
	blog, err := pair.Backup.Log(1)
	if err != nil {
		return nil, err
	}
	txs, err := chaos.ReadLogRecords(blog)
	if err != nil {
		return nil, err
	}
	type identity struct {
		node uint32
		seq  uint64
	}
	seen := map[identity]bool{}
	for _, tx := range txs {
		seen[identity{tx.Node, tx.TxSeq}] = true
	}
	if len(seen) != rep.Commits {
		return nil, fmt.Errorf("backup log has %d distinct records, committed %d — committed records lost",
			len(seen), rep.Commits)
	}
	img := append([]byte(nil), reg.Bytes()...)
	want := map[uint32][]byte{uint32(chaosRegion): img}
	if err := chaos.CheckMergeRecovery([]wal.Device{blog}, want); err != nil {
		return nil, err
	}
	rep.finish(want, len(seen))
	rep.Faults = map[string]int64{"proxy_cuts": int64(proxy.Cuts())}
	return rep, nil
}

// --- Scenario 6: drop compressed frames ----------------------------------

// chaosDropCompressed aims the fault injector exclusively at the
// compressed batch frame (MsgUpdateBatchC): a quarter of them vanish
// on the wire while rotating writers hammer every lock. Receivers must
// recover the lost spans through the pull backstop exactly as they do
// for plain frames, and the run fails loudly if the cluster never
// actually shipped a compressed frame — guarding against a regression
// where the size heuristic silently disables compression and the
// scenario degenerates into a no-fault run.
func chaosDropCompressed(seed int64) (*ChaosReport, error) {
	inj := chaos.New(chaos.Config{
		Seed:      seed,
		DropProb:  0.25,
		DropTypes: []uint8{coherency.MsgUpdateBatchC},
	})
	c, err := chaosCluster(inj)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	rep := &ChaosReport{Scenario: "drop-compressed", Seed: seed}

	for round := 0; round < 10; round++ {
		for l := 0; l < chaosLocks; l++ {
			w := (round + l) % c.Size()
			if err := chaosWrite(c.Node(w), seed, round, l); err != nil {
				return nil, err
			}
			rep.Commits++
		}
	}

	if err := chaosCheck(c, rep); err != nil {
		return nil, err
	}
	var compressed int64
	for i := 0; i < c.Size(); i++ {
		compressed += c.Node(i).Stats().Counter(metrics.CtrCompressedFrames)
	}
	if compressed == 0 {
		return nil, fmt.Errorf("no compressed frames sent — scenario exercised nothing")
	}
	rep.Faults = inj.Stats()
	if rep.Faults["drops"] == 0 {
		return nil, fmt.Errorf("injector dropped no compressed frames")
	}
	return rep, nil
}

// --- Scenario 7: corrupt log repair --------------------------------------

// corruptLogRun drives one crash-restart workload; with corrupt set,
// the restarting node comes back on damaged media — a read-back bit
// flip planted mid-log in its view of a peer's server log, exactly
// where the catch-up scan must cross it. The write schedule is
// identical either way, so the two runs must land on the same digest.
// Returns the report plus the restarted node's corruption/repair
// counters.
func corruptLogRun(seed int64, corrupt bool) (rep *ChaosReport, detected, repaired int64, err error) {
	inj := chaos.New(chaos.Config{Seed: seed}) // no network faults: disk is the story
	c, err := chaosCluster(inj)
	if err != nil {
		return nil, 0, 0, err
	}
	defer c.Close()
	rep = &ChaosReport{Scenario: "corrupt-log-repair", Seed: seed}

	round := 0
	for ; round < 4; round++ {
		for l := 0; l < chaosLocks; l++ {
			w := (round + l) % c.Size()
			if err := chaosWrite(c.Node(w), seed, round, l); err != nil {
				return nil, 0, 0, err
			}
			rep.Commits++
		}
	}
	// Position tokens at the crash target so relocation is exercised.
	for l := 0; l < chaosLocks; l += 2 {
		if err := chaosWrite(c.Node(2), seed, round, l); err != nil {
			return nil, 0, 0, err
		}
		rep.Commits++
	}
	round++

	if err := c.Crash(2); err != nil {
		return nil, 0, 0, err
	}
	for end := round + 4; round < end; round++ {
		for l := 0; l < chaosLocks; l++ {
			if c.homeIndex(uint32(l)) == 2 {
				continue // manager is down
			}
			w := (round + l) % 2 // survivors only
			if err := chaosWrite(c.Node(w), seed, round, l); err != nil {
				return nil, 0, 0, err
			}
			rep.Commits++
		}
	}

	if corrupt {
		self := uint32(c.ids[2])
		victim := uint32(c.ids[0])
		c.SetDiskFaultWrap(2, func(node uint32, dev wal.Device) wal.Device {
			if node == self {
				// The node's own redo log keeps its real write path:
				// post-restart appends must still reach the server.
				return dev
			}
			fd := fault.NewDevice(dev, seed)
			if node == victim {
				// One-shot flip in the middle of the peer log the
				// catch-up scan reads: the first pass sees interior
				// corruption, the retry reads sound bytes and pulls
				// every record past the damage.
				if sz, serr := fd.Size(); serr == nil && sz > 0 {
					fd.FlipAt(sz/2, 0xff, false)
				}
			}
			return fd
		})
	}
	if err := c.Restart(2); err != nil {
		return nil, 0, 0, err
	}
	detected = c.Node(2).Stats().Counter(metrics.CtrLogCorruption)
	repaired = c.Node(2).Stats().Counter(metrics.CtrRepairRecords)

	for end := round + 4; round < end; round++ {
		for l := 0; l < chaosLocks; l++ {
			w := (round + l) % c.Size()
			if err := chaosWrite(c.Node(w), seed, round, l); err != nil {
				return nil, 0, 0, err
			}
			rep.Commits++
		}
	}

	if err := chaosCheck(c, rep); err != nil {
		return nil, 0, 0, err
	}
	rep.Faults = inj.Stats()
	return rep, detected, repaired, nil
}

// chaosCorruptLogRepair is the disk-corruption recovery scenario: the
// same crash-restart workload runs twice, once clean and once with the
// restarted node reading a corrupted peer log, and the two runs must
// converge to bit-identical digests — corruption-aware repair recovers
// exactly the committed state, not approximately. The faulted run must
// also actually detect the corruption and pull records past it, so a
// regression that silently stops scanning at the damage fails loudly
// rather than passing on an accidentally-equal prefix.
func chaosCorruptLogRepair(seed int64) (*ChaosReport, error) {
	base, _, _, err := corruptLogRun(seed, false)
	if err != nil {
		return nil, fmt.Errorf("fault-free run: %w", err)
	}
	rep, detected, repaired, err := corruptLogRun(seed, true)
	if err != nil {
		return nil, fmt.Errorf("corrupt run: %w", err)
	}
	if rep.Digest != base.Digest {
		return nil, fmt.Errorf("corrupt run digest %016x != fault-free digest %016x — repair did not reconverge exactly",
			rep.Digest, base.Digest)
	}
	if detected == 0 {
		return nil, fmt.Errorf("no log corruption detected — the planted flip exercised nothing")
	}
	if repaired == 0 {
		return nil, fmt.Errorf("corruption detected but no records pulled past the damage")
	}
	if rep.Faults == nil {
		rep.Faults = map[string]int64{}
	}
	rep.Faults[metrics.CtrLogCorruption] = detected
	rep.Faults[metrics.CtrRepairRecords] = repaired
	return rep, nil
}
