// Package chaos provides deterministic fault injection for the LBC
// stack: a seeded wrapper around the netproto transport (drops,
// duplication, reordering, delays, partitions), fault wrappers for the
// storage layer, a TCP proxy for connection-drop injection, and
// invariant checkers used by the crash/restart harness.
//
// Determinism is the organizing principle. Every random decision is
// drawn from a per-link RNG stream keyed by (seed, from, to), and
// decisions are consumed in per-link send order — so a scenario that
// drives transactions in a fixed sequence sees bit-for-bit identical
// fault schedules across runs with the same seed. Failures print the
// seed; re-running with it reproduces the exact interleaving.
//
// The injector distinguishes two fault classes, following the paper's
// failure model (§2, §4.2):
//
//   - Silent drops, duplication and reordering apply only to coherency
//     update messages (MsgUpdateBatch and the compressed
//     MsgUpdateBatchC by default). These are
//     the faults the per-lock sequence interlock (§3.4) and the
//     server-log pull path are designed to absorb.
//   - Partitions are visible: every send across a cut link fails with
//     netproto.ErrPeerUnreachable, for all message types. Control
//     traffic (lock tokens) must see the error so the retry loop in
//     lockmgr can re-deliver the token once the partition heals —
//     silently dropping a token would leave the lock unholdable.
package chaos

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"lbc/internal/netproto"
)

// Config parameterizes an Injector. Probabilities are in [0, 1] and
// are evaluated independently per message on each link's RNG stream.
type Config struct {
	// Seed keys every RNG stream. The same seed with the same send
	// sequence reproduces the same fault schedule exactly.
	Seed int64
	// DropProb silently discards an update message.
	DropProb float64
	// DupProb delivers an update message twice back-to-back.
	DupProb float64
	// ReorderProb holds an update back so the link's next update
	// overtakes it (exercises the §3.4 ordering interlock).
	ReorderProb float64
	// DelayProb sleeps for a random duration in (0, MaxDelay] before
	// the send. Applied synchronously, so per-sender FIFO order is
	// preserved; it perturbs cross-node timing only.
	DelayProb float64
	// MaxDelay bounds injected delays. Defaults to 2ms.
	MaxDelay time.Duration
	// DropTypes lists the message types eligible for silent faults
	// (drop/dup/reorder). Defaults to the coherency update types
	// {0x25, 0x2D}; control messages always either go through or fail
	// visibly.
	DropTypes []uint8
	// StoreFailProb injects rvm-visible errors into wrapped storage
	// operations (FaultyStore / FaultyDevice), drawn from a dedicated
	// per-wrapper RNG stream.
	StoreFailProb float64
}

func (c *Config) fill() {
	if c.MaxDelay <= 0 {
		c.MaxDelay = 2 * time.Millisecond
	}
	if c.DropTypes == nil {
		// MsgUpdateBatch, MsgUpdateBatchC: a dropped batch frame (plain
		// or compressed) loses every record in it; the interlock + pull
		// path recovers, it just stalls more locks at once.
		c.DropTypes = []uint8{0x25, 0x2D}
	}
}

// linkKey names a directed link.
type linkKey struct {
	from, to netproto.NodeID
}

// linkState is the per-directed-link fault stream.
type linkState struct {
	rng  *rand.Rand
	held *heldMsg // reorder hold-back, at most one in flight
}

type heldMsg struct {
	typ     uint8
	payload []byte
}

// Injector owns the fault schedule shared by all wrapped transports
// and stores of one cluster.
type Injector struct {
	mu        sync.Mutex
	cfg       Config
	dropTypes map[uint8]bool
	links     map[linkKey]*linkState
	cut       map[linkKey]bool
	stats     map[string]int64
}

// New creates an injector for the given configuration.
func New(cfg Config) *Injector {
	cfg.fill()
	dt := make(map[uint8]bool, len(cfg.DropTypes))
	for _, t := range cfg.DropTypes {
		dt[t] = true
	}
	return &Injector{
		cfg:       cfg,
		dropTypes: dt,
		links:     map[linkKey]*linkState{},
		cut:       map[linkKey]bool{},
		stats:     map[string]int64{},
	}
}

// Seed returns the seed the injector was built with (printed by
// harnesses so failures are reproducible).
func (in *Injector) Seed() int64 { return in.cfg.Seed }

// linkRNG derives the deterministic stream for one directed link:
// splitmix64-style mixing of (seed, from, to) so streams are
// independent and stable across runs.
func linkRNG(seed int64, from, to uint64) *rand.Rand {
	x := uint64(seed) ^ (from+1)*0x9E3779B97F4A7C15 ^ (to+1)*0xC2B2AE3D27D4EB4F
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return rand.New(rand.NewSource(int64(x)))
}

// link returns (creating on first use) the state for a directed link.
// Caller holds in.mu.
func (in *Injector) link(k linkKey) *linkState {
	ls, ok := in.links[k]
	if !ok {
		ls = &linkState{rng: linkRNG(in.cfg.Seed, uint64(k.from), uint64(k.to))}
		in.links[k] = ls
	}
	return ls
}

func (in *Injector) count(name string, n int64) {
	in.stats[name] += n
}

// Stats returns a snapshot of the injector's fault counters.
func (in *Injector) Stats() map[string]int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[string]int64, len(in.stats))
	for k, v := range in.stats {
		out[k] = v
	}
	return out
}

// StatLine formats the counters deterministically (sorted by name).
func (in *Injector) StatLine() string {
	st := in.Stats()
	keys := make([]string, 0, len(st))
	for k := range st {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := ""
	for _, k := range keys {
		if s != "" {
			s += " "
		}
		s += fmt.Sprintf("%s=%d", k, st[k])
	}
	return s
}

// --- Partition control ---------------------------------------------------

// PartitionOneWay cuts the directed link from -> to.
func (in *Injector) PartitionOneWay(from, to netproto.NodeID) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.cut[linkKey{from, to}] = true
}

// Partition symmetrically cuts every link between the two groups.
func (in *Injector) Partition(a, b []netproto.NodeID) {
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, x := range a {
		for _, y := range b {
			in.cut[linkKey{x, y}] = true
			in.cut[linkKey{y, x}] = true
		}
	}
}

// Isolate cuts node off from all the given peers, both directions.
func (in *Injector) Isolate(node netproto.NodeID, peers []netproto.NodeID) {
	in.Partition([]netproto.NodeID{node}, peers)
}

// HealLink restores the directed link from -> to.
func (in *Injector) HealLink(from, to netproto.NodeID) {
	in.mu.Lock()
	defer in.mu.Unlock()
	delete(in.cut, linkKey{from, to})
}

// Heal removes every partition.
func (in *Injector) Heal() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.cut = map[linkKey]bool{}
}

// Partitioned reports whether the directed link from -> to is cut.
func (in *Injector) Partitioned(from, to netproto.NodeID) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.cut[linkKey{from, to}]
}

// --- Send-path fault decisions -------------------------------------------

// sendFn abstracts the underlying transport send so deliver can be
// tested without a full mesh.
type sendFn func(to netproto.NodeID, typ uint8, payload []byte) error

// deliver runs one send through the fault schedule. It draws decisions
// from the link's RNG stream in a fixed order (drop, dup, reorder,
// delay) so schedules replay exactly.
func (in *Injector) deliver(send sendFn, from, to netproto.NodeID, typ uint8, payload []byte) error {
	in.mu.Lock()
	if in.cut[linkKey{from, to}] {
		in.count("partitioned_sends", 1)
		in.mu.Unlock()
		return fmt.Errorf("%w: chaos partition %d -> %d", netproto.ErrPeerUnreachable, from, to)
	}
	ls := in.link(linkKey{from, to})
	in.count("sends", 1)

	// RNG draws happen only for faultable types, and always in the
	// same order (drop, dup, reorder, delay). Control messages —
	// including the timer-driven re-announce and token-retry traffic,
	// whose send counts vary run to run — must not consume from the
	// stream, or the schedule would not replay.
	faultable := in.dropTypes[typ]
	var doDrop, doDup, doReorder bool
	var delay time.Duration
	if faultable {
		doDrop = in.cfg.DropProb > 0 && ls.rng.Float64() < in.cfg.DropProb
		doDup = in.cfg.DupProb > 0 && ls.rng.Float64() < in.cfg.DupProb
		doReorder = in.cfg.ReorderProb > 0 && ls.rng.Float64() < in.cfg.ReorderProb
		if in.cfg.DelayProb > 0 && ls.rng.Float64() < in.cfg.DelayProb {
			delay = time.Duration(ls.rng.Int63n(int64(in.cfg.MaxDelay))) + time.Microsecond
		}
	}

	if doDrop {
		in.count("drops", 1)
		in.mu.Unlock()
		return nil // silently lost on the wire
	}
	if doReorder && ls.held == nil {
		// Hold this message back; the link's next faultable send
		// overtakes it. An unflushed hold-back degrades to a drop,
		// which the update path tolerates by design.
		in.count("reorders", 1)
		ls.held = &heldMsg{typ: typ, payload: append([]byte(nil), payload...)}
		in.mu.Unlock()
		return nil
	}
	var release *heldMsg
	if faultable && ls.held != nil {
		release = ls.held
		ls.held = nil
	}
	if doDup {
		in.count("dups", 1)
	}
	if delay > 0 {
		in.count("delays", 1)
	}
	in.mu.Unlock()

	if delay > 0 {
		time.Sleep(delay)
	}
	if err := send(to, typ, payload); err != nil {
		return err
	}
	if doDup {
		if err := send(to, typ, payload); err != nil {
			return err
		}
	}
	if release != nil {
		// Delivered after a later send: the receiver sees them out of
		// order and the interlock must park and re-sequence.
		if err := send(to, release.typ, release.payload); err != nil {
			return err
		}
	}
	return nil
}

// flushHeld delivers every reorder hold-back originating at self via
// the provided raw send (bypassing fault decisions, so a flush cannot
// itself be dropped). Harnesses call this at quiesce so held updates
// are not counted as drops.
func (in *Injector) flushHeld(self netproto.NodeID, send sendFn) error {
	in.mu.Lock()
	type pending struct {
		to  netproto.NodeID
		msg *heldMsg
	}
	var out []pending
	for k, ls := range in.links {
		if k.from != self || ls.held == nil {
			continue
		}
		if in.cut[k] {
			continue // still partitioned; stays held
		}
		out = append(out, pending{to: k.to, msg: ls.held})
		ls.held = nil
	}
	sort.Slice(out, func(i, j int) bool { return out[i].to < out[j].to })
	in.mu.Unlock()
	for _, p := range out {
		if err := send(p.to, p.msg.typ, p.msg.payload); err != nil {
			return err
		}
	}
	return nil
}
