package replstore

import (
	"fmt"

	"lbc/internal/merge"
	"lbc/internal/rvm"
	"lbc/internal/store"
	"lbc/internal/wal"
)

// Replica digests. Digest summarizes everything that matters about one
// replica's content: every region image with its version tag, and the
// recovery outcome of its logs — the per-node logs are merged
// (deduplicating at-least-once appends) and replayed by rvm.Recover,
// and the reconstructed images are folded in. Two replicas with equal digests would recover a cluster to the
// same state; the chaos harness uses this to prove a replacement
// replica caught up to exactly the survivors' state.

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvMix(h uint64, vals ...uint64) uint64 {
	for _, v := range vals {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= fnvPrime
			v >>= 8
		}
	}
	return h
}

func fnvBytes(b []byte) uint64 {
	h := uint64(fnvOffset)
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime
	}
	return h
}

// Digest computes the content digest of a single replica over a plain
// (non-quorum) client connection.
func Digest(sc *store.Client) (uint64, error) {
	h := uint64(fnvOffset)

	ids, err := sc.Regions()
	if err != nil {
		return 0, err
	}
	for _, id := range sortedU32(ids) {
		ver, img, err := sc.ReadVersioned(id)
		if err != nil {
			return 0, err
		}
		h = fnvMix(h, uint64(id), ver, fnvBytes(img))
	}

	nodes, err := sc.Logs()
	if err != nil {
		return 0, err
	}
	merged := wal.NewMemDevice()
	devs := make([]wal.Device, 0, len(nodes))
	for _, node := range sortedU32(nodes) {
		dev := sc.LogDevice(node)
		sz, err := dev.Size()
		if err != nil {
			return 0, err
		}
		h = fnvMix(h, uint64(node), uint64(sz))
		devs = append(devs, dev)
	}
	recs, err := merge.MergeTo(merged, devs...)
	if err != nil {
		return 0, err
	}
	mem := rvm.NewMemStore()
	if _, err := rvm.Recover(merged, mem, rvm.RecoverOptions{}); err != nil {
		return 0, err
	}
	rids, err := mem.Regions()
	if err != nil {
		return 0, err
	}
	for _, id := range sortedU32(rids) {
		img, err := mem.LoadRegion(id)
		if err != nil {
			return 0, err
		}
		h = fnvMix(h, uint64(id), fnvBytes(img))
	}
	return fnvMix(h, uint64(recs)), nil
}

// VerifyReplicas digests every member of the current view. The caller
// should quiesce writes first; on a settled quorum with no failed
// members the digests are identical.
func (c *Client) VerifyReplicas() (map[string]uint64, error) {
	out := map[string]uint64{}
	for _, m := range c.members() {
		sc, err := c.conn(m)
		if err != nil {
			return nil, fmt.Errorf("replstore: digest %s: %w", m, err)
		}
		d, err := Digest(sc)
		if err != nil {
			return nil, fmt.Errorf("replstore: digest %s: %w", m, err)
		}
		out[m] = d
	}
	return out, nil
}
