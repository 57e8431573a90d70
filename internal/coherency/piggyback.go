package coherency

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"lbc/internal/bufpool"
	"lbc/internal/netproto"
	"lbc/internal/wal"
)

// Piggyback propagation (§2.2, second alternative): committed log
// records are not broadcast at all; they travel with the lock token,
// sent by the last writer to the next holder. Each node retains the
// records for a segment until every cluster member has received them,
// implementing the paper's record-discard protocol ("pass information
// about how many log records to hold for each segment along with the
// lock token, as each node acquires the lock in turn ... Each node
// holds all log records up to and including the oldest records needed
// by the most out-of-date peer").
//
// The token blob carries (a) the seen-vector — for each node, the
// highest write sequence known to have reached it — and (b) every
// retained record the requester has not seen, as format-tagged records
// in the batch-frame layout eager broadcast uses (batcher.go):
//
//	u16 nSeen | nSeen * {node u32, seq u64} | count u32 | count * {len u32, tagged record}
//
// Receivers merge the vector, retain the records for further
// forwarding, and hand them to the normal apply pipeline, whose chain
// ordering and duplicate suppression need no changes.

// lockHistory is one lock's retained update history.
type lockHistory struct {
	recs []retainedRec              // ascending writeSeq
	seen map[netproto.NodeID]uint64 // node -> highest writeSeq delivered
}

type retainedRec struct {
	writeSeq uint64
	rec      *wal.TxRecord
}

func (n *Node) history(lockID uint32) *lockHistory {
	h, ok := n.retention[lockID]
	if !ok {
		h = &lockHistory{seen: map[netproto.NodeID]uint64{}}
		n.retention[lockID] = h
	}
	return h
}

// retainRecord stores a committed record in the history of every lock
// it wrote under, and notes that this node has it. Caller must not
// hold n.mu.
func (n *Node) retainRecord(rec *wal.TxRecord) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, l := range rec.Locks {
		if !l.Wrote {
			continue
		}
		h := n.history(l.LockID)
		h.insert(l.Seq, rec)
		if h.seen[n.tr.Self()] < l.Seq {
			h.seen[n.tr.Self()] = l.Seq
		}
	}
}

// insert adds (writeSeq, rec) keeping ascending order; duplicates are
// dropped.
func (h *lockHistory) insert(writeSeq uint64, rec *wal.TxRecord) {
	i := sort.Search(len(h.recs), func(i int) bool { return h.recs[i].writeSeq >= writeSeq })
	if i < len(h.recs) && h.recs[i].writeSeq == writeSeq {
		return
	}
	h.recs = append(h.recs, retainedRec{})
	copy(h.recs[i+1:], h.recs[i:])
	h.recs[i] = retainedRec{writeSeq: writeSeq, rec: rec}
}

// discard drops records every cluster member already has.
func (n *Node) discardLocked(h *lockHistory) {
	min := ^uint64(0)
	for _, id := range n.clusterNodes {
		if s := h.seen[id]; s < min {
			min = s
		}
	}
	i := sort.Search(len(h.recs), func(i int) bool { return h.recs[i].writeSeq > min })
	if i > 0 {
		h.recs = append(h.recs[:0], h.recs[i:]...)
	}
}

// RetainedRecords reports how many records are currently held for a
// lock (diagnostics and tests for the discard protocol).
func (n *Node) RetainedRecords(lockID uint32) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	if h, ok := n.retention[lockID]; ok {
		return len(h.recs)
	}
	return 0
}

// PrepareToken implements lockmgr.TokenData: on a token pass, attach
// the seen-vector and every retained record the requester lacks.
func (n *Node) PrepareToken(lockID uint32, to netproto.NodeID) []byte {
	n.mu.Lock()
	defer n.mu.Unlock()
	h := n.history(lockID)
	target := h.seen[to]
	var pending []retainedRec
	for _, rr := range h.recs {
		if rr.writeSeq > target {
			pending = append(pending, rr)
		}
	}
	// Optimistically mark the requester as having everything we send;
	// token delivery is the same channel, so possession is guaranteed.
	if len(pending) > 0 {
		last := pending[len(pending)-1].writeSeq
		if h.seen[to] < last {
			h.seen[to] = last
		}
	}
	n.discardLocked(h)

	// The tagged encodings are pooled: their bytes are copied into the
	// blob (which lockmgr owns) and recycled right away.
	parts := make([][]byte, len(pending))
	size := 2 + 12*len(h.seen) + 4
	for i, rr := range pending {
		parts[i] = n.encodeTaggedRecord(rr.rec)
		size += 4 + len(parts[i])
	}
	buf := make([]byte, 2, size)
	binary.LittleEndian.PutUint16(buf, uint16(len(h.seen)))
	for id, seq := range h.seen {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(id))
		buf = binary.LittleEndian.AppendUint64(buf, seq)
	}
	buf = netproto.AppendBatch(buf, parts)
	for _, p := range parts {
		bufpool.Put(p)
	}
	n.stats.Add("token_piggyback_bytes", int64(len(buf)))
	n.stats.Add("token_piggyback_recs", int64(len(pending)))
	return buf
}

// seenEntry is one element of a token blob's seen-vector.
type seenEntry struct {
	id  netproto.NodeID
	seq uint64
}

// errBadTokenBlob reports a token blob whose seen-vector is truncated.
var errBadTokenBlob = errors.New("coherency: malformed token blob")

// decodeTokenBlob splits a PrepareToken blob into its seen-vector and
// records. Every count is checked against the bytes actually present
// before anything is allocated for it, and the records are copied out
// of blob, which the lock manager reuses.
func decodeTokenBlob(blob []byte) ([]seenEntry, []*wal.TxRecord, error) {
	if len(blob) < 2 {
		return nil, nil, fmt.Errorf("%w: %d bytes", errBadTokenBlob, len(blob))
	}
	nSeen := int(binary.LittleEndian.Uint16(blob))
	p := 2 + 12*nSeen
	if p > len(blob) {
		return nil, nil, fmt.Errorf("%w: %d seen entries in %d bytes", errBadTokenBlob, nSeen, len(blob))
	}
	entries := make([]seenEntry, nSeen)
	for i := range entries {
		e := blob[2+12*i:]
		entries[i] = seenEntry{
			id:  netproto.NodeID(binary.LittleEndian.Uint32(e)),
			seq: binary.LittleEndian.Uint64(e[4:]),
		}
	}
	parts, err := netproto.SplitBatch(blob[p:])
	if err != nil {
		return nil, nil, err
	}
	recs := make([]*wal.TxRecord, len(parts))
	for i, part := range parts {
		rec, aliased, err := decodeTaggedRecord(part)
		if err != nil {
			return nil, nil, err
		}
		if aliased {
			// Deliberately an unpooled copy (not adoptRecord): these
			// records are retained in the lock history indefinitely as
			// well as enqueued, so a pooled arena would be recycled by
			// recordDone while the history still references it.
			rec = copyRecord(rec)
		}
		recs[i] = rec
	}
	return entries, recs, nil
}

// TokenArrived implements lockmgr.TokenData: merge the seen-vector,
// retain the records for onward passes, and feed them to the apply
// pipeline. A malformed blob is counted as a decode error from the
// sender and changes nothing.
func (n *Node) TokenArrived(lockID uint32, from netproto.NodeID, blob []byte) {
	entries, recs, err := decodeTokenBlob(blob)
	if err != nil {
		n.decodeError(from)
		return
	}

	n.mu.Lock()
	h := n.history(lockID)
	for _, e := range entries {
		if h.seen[e.id] < e.seq {
			h.seen[e.id] = e.seq
		}
	}
	for _, rec := range recs {
		for _, l := range rec.Locks {
			if l.Wrote {
				hist := n.history(l.LockID)
				hist.insert(l.Seq, rec)
				if hist.seen[n.tr.Self()] < l.Seq {
					hist.seen[n.tr.Self()] = l.Seq
				}
			}
		}
	}
	n.discardLocked(h)
	n.mu.Unlock()

	for _, rec := range recs {
		n.enqueue(rec)
	}
}
