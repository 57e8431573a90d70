package coherency

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"lbc/internal/netproto"
	"lbc/internal/rvm"
	"lbc/internal/wal"
)

// Equivalence stress for the apply pipeline: a randomized
// committed-record stream — per-lock chains, occasional multi-lock
// records, lock-free per-sender records, duplicated deliveries, and a
// shuffled delivery order — is played into a receiving node, whose
// image must equal the sequential specification: the records copied
// into a byte slice in the order they were generated. The per-lock
// interlock (and per-sender FIFO for lock-free records) is the entire
// ordering contract, so any schedule the engine admits that violates it
// produces a divergent image here.

const (
	eqChains   = 4
	eqSpan     = 4096
	eqScratch  = 512 // per-sender lock-free scratch area
	eqSenders  = 2   // senders are nodes 2 and 3
	eqRegionSz = eqChains*eqSpan + eqSenders*eqScratch
)

// eqFrame is one scheduled delivery: a pre-encoded batch-of-one update
// frame and the peer it arrives from.
type eqFrame struct {
	from     netproto.NodeID
	buf      []byte
	lockFree bool
}

// buildEquivalenceStream fabricates the stream and returns its
// (shuffled, partially duplicated) delivery schedule together with the
// records in generation order.
func buildEquivalenceStream(t *testing.T, rng *rand.Rand, records int) ([]eqFrame, []*wal.TxRecord) {
	t.Helper()
	var lockSeq [eqChains]uint64
	senderTx := map[uint32]uint64{}
	var frames []eqFrame
	var recs []*wal.TxRecord
	lockFree := map[netproto.NodeID][]eqFrame{} // per sender, generation order

	for i := 0; i < records; i++ {
		sender := uint32(2 + rng.Intn(eqSenders))
		senderTx[sender]++
		rec := &wal.TxRecord{Node: sender, TxSeq: senderTx[sender]}

		if rng.Intn(8) == 0 {
			// Lock-free record: writes rotate through the sender's own
			// scratch slots, so per-sender FIFO fully determines the
			// final bytes.
			slot := senderTx[sender] % 8
			off := uint64(eqChains*eqSpan) + uint64(sender-2)*eqScratch + slot*64
			data := make([]byte, 64)
			rng.Read(data)
			rec.Ranges = []wal.RangeRec{{Region: 1, Off: off, Data: data}}
		} else {
			chains := []int{rng.Intn(eqChains)}
			if rng.Intn(5) == 0 {
				other := rng.Intn(eqChains)
				if other != chains[0] {
					chains = append(chains, other)
				}
			}
			sort.Ints(chains)
			for _, c := range chains {
				lockSeq[c]++
				rec.Locks = append(rec.Locks, wal.LockRec{
					LockID: uint32(c), Seq: lockSeq[c],
					PrevWriteSeq: lockSeq[c] - 1, Wrote: true,
				})
				size := 1 + rng.Intn(64)
				off := uint64(c*eqSpan + rng.Intn(eqSpan-size))
				data := make([]byte, size)
				rng.Read(data)
				rec.Ranges = append(rec.Ranges, wal.RangeRec{Region: 1, Off: off, Data: data})
			}
			// Ranges are already sorted by (Region, Off): segment bases
			// ascend with the (sorted) chain index.
		}
		f := eqFrame{from: netproto.NodeID(sender), buf: batchFrame(t, rec), lockFree: len(rec.Locks) == 0}
		frames = append(frames, f)
		recs = append(recs, rec)
		if f.lockFree {
			lockFree[f.from] = append(lockFree[f.from], f)
		}
	}

	// Shuffled schedule. Lock-free records have no ordering but their
	// sender's FIFO, which a transport preserves, so each sender's
	// lock-free frames keep their generation order within the shuffle.
	sched := append([]eqFrame(nil), frames...)
	rng.Shuffle(len(sched), func(i, j int) { sched[i], sched[j] = sched[j], sched[i] })
	for i, f := range sched {
		if f.lockFree {
			sched[i] = lockFree[f.from][0]
			lockFree[f.from] = lockFree[f.from][1:]
		}
	}
	// Duplicated deliveries sprinkled in, each somewhere after a first
	// delivery of the same frame.
	for i := 0; i < len(frames)/10; i++ {
		orig := rng.Intn(len(sched))
		at := orig + 1 + rng.Intn(len(sched)-orig)
		sched = append(sched, eqFrame{})
		copy(sched[at+1:], sched[at:])
		sched[at] = sched[orig]
	}
	return sched, recs
}

// playStream drives the schedule into a fresh receiving node and
// returns the final image.
func playStream(t *testing.T, sched []eqFrame, workers int) []byte {
	t.Helper()
	hub := netproto.NewHub()
	r, err := rvm.Open(rvm.Options{Node: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	n, err := New(Options{
		RVM: r, Transport: hub.Endpoint(1),
		Nodes:        []netproto.NodeID{1, 2, 3},
		applyWorkers: workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	reg, err := n.MapRegion(1, eqRegionSz)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < eqChains; c++ {
		n.AddSegment(Segment{LockID: uint32(c), Region: 1, Off: uint64(c * eqSpan), Len: eqSpan})
	}
	for _, f := range sched {
		n.onUpdateBatch(f.from, f.buf)
	}
	if err := n.Quiesce(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if p := n.Parked(); p != 0 {
		t.Fatalf("%d records still parked after full delivery", p)
	}
	return append([]byte(nil), reg.Bytes()...)
}

func TestParallelApplierMatchesSerial(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sched, recs := buildEquivalenceStream(t, rng, 150)
		want := make([]byte, eqRegionSz)
		for _, rec := range recs {
			for _, r := range rec.Ranges {
				copy(want[r.Off:], r.Data)
			}
		}
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("seed%d/workers%d", seed, workers), func(t *testing.T) {
				got := playStream(t, sched, workers)
				if !bytes.Equal(got, want) {
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("image diverges from the sequential order at byte %d: got %02x want %02x",
								i, got[i], want[i])
						}
					}
				}
			})
		}
	}
}
