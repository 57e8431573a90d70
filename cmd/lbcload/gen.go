package main

import (
	"math"
	"sort"
)

// geometry is the region layout: segs segments of segLen bytes, lock id
// = segment index. The first hot segments are the shared hot set; the
// rest is carved into one private slice per client.
type geometry struct {
	segs, segLen, hot int
}

// The reference geometry is 256 x 4 KiB = 1 MiB, not the 16 MiB the
// issue sketched: Cluster.Checkpoint on a store-backed cluster re-reads
// and re-writes the whole image once per page, so its cost grows with
// the square of the region, and at 16 MiB one checkpoint outlasts the
// whole run. See README.md, "What the rig does not measure".
var refGeometry = geometry{segs: 256, segLen: 4096, hot: 64}

func (g geometry) size() int { return g.segs * g.segLen }

// slice returns client c's private slice [lo, lo+n) of segment indexes.
func (g geometry) slice(c, clients int) (lo, n int) {
	n = (g.segs - g.hot) / clients
	return g.hot + c*n, n
}

const (
	nodes      = 3
	bulkLocks  = 8   // locks per bulk transaction
	bulkRanges = 256 // ranges per bulk transaction (OO7 T2-B's shape)
	bulkBytes  = 48  // bytes per bulk range: one atomic part
	smallBytes = 64  // bytes per private/shared range
	zipfTheta  = 0.99
)

type opKind uint8

const (
	opPrivate  opKind = iota // exclusive, 4 x 64 B
	opHotWrite               // exclusive, verify header, bump counter, 1 x 64 B
	opHotRead                // shared, verify checksum and counter
	opBulk                   // 8 ascending locks from seg, 32 x 48 B each
)

// op is one pre-generated transaction. Offsets and payload bytes derive
// from salt when the op runs, so a stream is 8 bytes per transaction.
type op struct {
	kind opKind
	node uint8
	seg  uint16
	salt uint32
}

func (o op) writes() (count, size int) {
	switch o.kind {
	case opPrivate:
		return 4, smallBytes
	case opHotWrite:
		return 1, smallBytes
	case opBulk:
		return bulkRanges / bulkLocks, bulkBytes
	}
	return 0, 0
}

// rng is splitmix64: tiny, seedable, and the same on every platform.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func newRNG(seed int64, stream int) rng {
	r := rng(uint64(seed)*0x9e3779b97f4a7c15 + uint64(stream)*0xd1342543de82ef95)
	r.next()
	return r
}

// zipf draws ranks 0..n-1 with P(k) proportional to 1/(k+1)^theta.
// math/rand's Zipf needs an exponent above 1; 0.99 is the YCSB skew.
type zipf []float64

func newZipf(n int, theta float64) zipf {
	cdf := make(zipf, n)
	var sum float64
	for k := range cdf {
		sum += 1 / math.Pow(float64(k+1), theta)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return cdf
}

func (z zipf) pick(r *rng) int {
	k := sort.SearchFloat64s(z, r.float())
	if k >= len(z) {
		k = len(z) - 1
	}
	return k
}

// generator draws the ops of one client.
type generator struct {
	geo     geometry
	r       rng
	lo, n   int // private slice
	hotZipf zipf
	ownZipf zipf
}

func newGenerator(geo geometry, seed int64, client, clients int) *generator {
	g := &generator{geo: geo, r: newRNG(seed, client)}
	g.lo, g.n = geo.slice(client, clients)
	g.hotZipf = newZipf(geo.hot, zipfTheta)
	g.ownZipf = newZipf(g.n, zipfTheta)
	return g
}

func (g *generator) own() uint16    { return uint16(g.lo + g.ownZipf.pick(&g.r)) }
func (g *generator) hotSeg() uint16 { return uint16(g.hotZipf.pick(&g.r)) }

// mixed is the paced and crash mix: 70 % private-style, 20 % hot-set
// writers, 10 % hot-set readers, on any of liveNodes nodes.
func (g *generator) mixed(liveNodes int) op {
	o := op{node: uint8(g.r.intn(liveNodes)), salt: uint32(g.r.next())}
	switch p := g.r.intn(10); {
	case p < 7:
		o.kind, o.seg = opPrivate, g.own()
	case p < 9:
		o.kind, o.seg = opHotWrite, g.hotSeg()
	default:
		o.kind, o.seg = opHotRead, g.hotSeg()
	}
	return o
}

// stream pre-generates n ops of the named workload for one client.
func (g *generator) stream(workload string, client, n int) []op {
	ops := make([]op, n)
	for i := range ops {
		salt := uint32(g.r.next())
		switch workload {
		case "private":
			ops[i] = op{kind: opPrivate, node: 0, seg: g.own(), salt: salt}
		case "shared":
			kind := opHotWrite
			if g.r.intn(2) == 1 {
				kind = opHotRead
			}
			ops[i] = op{kind: kind, node: uint8(client % nodes), seg: g.hotSeg(), salt: salt}
		case "bulk":
			// seg is the first of bulkLocks consecutive segments of the
			// slice (wrapping inside it); exec sorts them ascending.
			ops[i] = op{kind: opBulk, node: uint8(client % 2), seg: g.own(), salt: salt}
		default: // paced, crash
			ops[i] = g.mixed(nodes)
		}
	}
	return ops
}

// outage pre-generates the transactions the survivors run while the
// last node is down: single-range writers on nodes 0..nodes-2 over the
// segments whose lock manager is still alive (a lock homed on the
// crashed node cannot change hands until it is back).
func (g *generator) outage(eligible []uint16, n int) []op {
	ops := make([]op, n)
	for i := range ops {
		ops[i] = op{kind: opHotWrite, node: uint8(g.r.intn(nodes - 1)),
			seg: eligible[g.r.intn(len(eligible))], salt: uint32(g.r.next())}
	}
	return ops
}

// schedule draws seeded exponential inter-arrival times at rate perSec
// until horizonNS, as offsets from the window start.
func schedule(r *rng, perSec float64, horizonNS int64) []int64 {
	var due []int64
	var t float64
	for {
		t += -math.Log(1-r.float()) / perSec * 1e9
		if int64(t) >= horizonNS {
			return due
		}
		due = append(due, int64(t))
	}
}
