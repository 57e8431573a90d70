// Package merge implements the paper's log-merge utility (§3.4): each
// node produces its own redo log, so before the standard recovery
// procedure can run, the per-node logs must be merged into a single log
// whose order is consistent with the interleaving of updates.
//
// The merge exploits strict two-phase locking: if two transactions
// acquired the same lock, the one with the earlier sequence number for
// that lock committed first. Those pairwise constraints define a
// partial order over all records; the utility topologically sorts the
// records (ties broken deterministically by node id and per-node commit
// sequence) and emits them into one log suitable for rvm.Recover.
package merge

import (
	"cmp"
	"fmt"
	"slices"

	"lbc/internal/wal"
)

// Merge reads every complete record from the input logs and returns
// them in an order consistent with all per-lock sequence constraints.
// Torn tails are ignored (they are uncommitted by definition).
func Merge(inputs ...wal.Device) ([]*wal.TxRecord, error) {
	var all []*wal.TxRecord
	for i, dev := range inputs {
		txs, err := wal.ReadDevice(dev)
		if err != nil {
			return nil, fmt.Errorf("merge: read input %d: %w", i, err)
		}
		for _, tx := range txs {
			if !tx.Checkpoint {
				all = append(all, tx)
			}
		}
	}
	return Order(all)
}

// Order topologically sorts records under the per-lock sequence
// constraints. It is exposed separately so in-memory record sets (e.g.
// from the coherency layer) can be merged without device round trips.
//
// Records with an identical (node, commit-seq) identity are collapsed
// to one: a client that retries an ambiguous append after a storage
// failover can legitimately write the same record twice, and replay
// must stay idempotent under that at-least-once behaviour.
func Order(all []*wal.TxRecord) ([]*wal.TxRecord, error) {
	type identity struct {
		node uint32
		seq  uint64
	}
	seen := make(map[identity]bool, len(all))
	deduped := all[:0:0]
	for _, tx := range all {
		id := identity{node: tx.Node, seq: tx.TxSeq}
		if seen[id] {
			continue
		}
		seen[id] = true
		deduped = append(deduped, tx)
	}
	all = deduped

	// Sort every (lock, sequence) reference once; consecutive references
	// to the same lock become ordering edges.
	type ref struct {
		lock uint32
		seq  uint64
		idx  int
	}
	var refs []ref
	for i, tx := range all {
		for _, l := range tx.Locks {
			refs = append(refs, ref{lock: l.LockID, seq: l.Seq, idx: i})
		}
	}
	slices.SortFunc(refs, func(a, b ref) int {
		if c := cmp.Compare(a.lock, b.lock); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	})

	succs := make([][]int, len(all))
	indeg := make([]int, len(all))
	for k := 1; k < len(refs); k++ {
		prev, cur := refs[k-1], refs[k]
		if prev.lock != cur.lock {
			continue
		}
		if prev.seq == cur.seq {
			a, b := all[prev.idx], all[cur.idx]
			return nil, fmt.Errorf(
				"merge: lock %d acquired twice at sequence %d (tx %d/%d and %d/%d): corrupt logs",
				cur.lock, cur.seq, a.Node, a.TxSeq, b.Node, b.TxSeq)
		}
		succs[prev.idx] = append(succs[prev.idx], cur.idx)
		indeg[cur.idx]++
	}

	// Kahn's algorithm with a deterministic ready heap ordered by
	// (node, per-node commit seq). Identities are unique after the
	// dedup, so the order is total and the output independent of input
	// order.
	ready := readyHeap{all: all}
	for i := range all {
		if indeg[i] == 0 {
			ready.push(i)
		}
	}

	out := make([]*wal.TxRecord, 0, len(all))
	for len(ready.idx) > 0 {
		i := ready.pop()
		out = append(out, all[i])
		for _, s := range succs[i] {
			indeg[s]--
			if indeg[s] == 0 {
				ready.push(s)
			}
		}
	}
	if len(out) != len(all) {
		return nil, fmt.Errorf("merge: ordering cycle across %d records (logs are inconsistent)",
			len(all)-len(out))
	}
	return out, nil
}

// readyHeap is a binary min-heap of indices into all, ordered by
// (node, per-node commit seq). It is typed rather than container/heap so
// a push does not box its index into an interface.
type readyHeap struct {
	all []*wal.TxRecord
	idx []int
}

func (h *readyHeap) less(a, b int) bool {
	x, y := h.all[h.idx[a]], h.all[h.idx[b]]
	if x.Node != y.Node {
		return x.Node < y.Node
	}
	return x.TxSeq < y.TxSeq
}

func (h *readyHeap) push(i int) {
	h.idx = append(h.idx, i)
	for c := len(h.idx) - 1; c > 0; {
		p := (c - 1) / 2
		if !h.less(c, p) {
			break
		}
		h.idx[c], h.idx[p] = h.idx[p], h.idx[c]
		c = p
	}
}

func (h *readyHeap) pop() int {
	top := h.idx[0]
	last := len(h.idx) - 1
	h.idx[0] = h.idx[last]
	h.idx = h.idx[:last]
	for p := 0; ; {
		c := 2*p + 1
		if c >= last {
			break
		}
		if c+1 < last && h.less(c+1, c) {
			c++
		}
		if !h.less(c, p) {
			break
		}
		h.idx[c], h.idx[p] = h.idx[p], h.idx[c]
		p = c
	}
	return top
}

// MergeTo merges the inputs and appends the ordered records to out in
// the standard encoding, returning the number of records written. The
// output log can then be fed to rvm.Recover unchanged.
func MergeTo(out wal.Device, inputs ...wal.Device) (int, error) {
	txs, err := Merge(inputs...)
	if err != nil {
		return 0, err
	}
	var buf []byte
	for _, tx := range txs {
		buf = wal.AppendStandard(buf[:0], tx)
		if _, err := out.Append(buf); err != nil {
			return 0, fmt.Errorf("merge: append output: %w", err)
		}
	}
	if err := out.Sync(); err != nil {
		return 0, err
	}
	return len(txs), nil
}
