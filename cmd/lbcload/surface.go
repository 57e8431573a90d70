package main

// surface.go names every program symbol the benchmark uses. Nothing
// else in this directory imports lbc or lbc/internal/...: a later PR
// that renames, moves or deletes one of these sees the break here and
// nowhere else, and everything not named here is free to change.

import (
	"io"
	"time"

	"lbc"
	"lbc/internal/lockmgr"
	"lbc/internal/metrics"
	"lbc/internal/netproto"
	"lbc/internal/rvm"
	"lbc/internal/store"
	"lbc/internal/wal"
)

// Facade types. Methods used on them:
//
//	Cluster: MapAll AddSegmentAll Barrier Node Log Store Checkpoint Crash Restart Close
//	Node:    Begin Stats ApplyQueueDepth Quiesce RVM().Region
//	Tx:      Acquire AcquireShared Write Commit Abort
//	Region:  Bytes
//	Stats:   Snapshot (Counters, Phases)
//	Device:  Append Sync Size Open Close
type (
	Cluster  = lbc.Cluster
	Node     = lbc.Node
	Tx       = lbc.Tx
	Region   = lbc.Region
	Snapshot = metrics.Snapshot
	Device   = wal.Device
	Mesh     = netproto.TCPMesh
	NodeID   = lbc.NodeID

	CommitMode = rvm.CommitMode
)

const (
	noRestore = lbc.NoRestore
	flush     = lbc.Flush
	noFlush   = lbc.NoFlush

	regionID = lbc.RegionID(1)
)

// Membership runs on the wall clock with slack thresholds; the rig
// treats any eviction as a failed run.
var memberOpts = lbc.MembershipOptions{Interval: 200 * time.Millisecond, SuspectAfter: 2 * time.Second}

// newProductionCluster is the configuration ROADMAP calls production,
// through the public facade and nothing else: every setting not named
// here is the program's default, so a PR that flips a default is
// measured.
func newProductionCluster(nodes int) (*Cluster, error) {
	return lbc.NewLocalCluster(nodes, lbc.WithTCP(), lbc.WithStore(), lbc.WithGroupCommit(),
		lbc.WithMembership(memberOpts))
}

// newRingCluster is the production cluster with the in-program trace
// ring on; the traced run uses it only to price the ring.
func newRingCluster(nodes, capacity int) (*Cluster, error) {
	return lbc.NewLocalCluster(nodes, lbc.WithTCP(), lbc.WithStore(), lbc.WithGroupCommit(),
		lbc.WithMembership(memberOpts), lbc.WithTracing(capacity))
}

// newLocalCluster is the probe cluster: one node, no store (rvm and
// lockmgr alone).
func newLocalCluster() (*Cluster, error) { return lbc.NewLocalCluster(1) }

// newTCPPair is the token ping-pong probe cluster: two nodes over TCP,
// private logs.
func newTCPPair() (*Cluster, error) { return lbc.NewLocalCluster(2, lbc.WithTCP()) }

func segment(lock uint32, off, n uint64) lbc.Segment {
	return lbc.Segment{LockID: lock, Region: regionID, Off: off, Len: n}
}

func regionOf(n *Node) *Region { return n.RVM().Region(regionID) }

// lockHomes returns, for locks 0..locks-1, the index of the node that
// manages each in an n-node cluster (ids are 1..n in index order).
// While a node is crashed, locks homed on it cannot change hands.
func lockHomes(nodes, locks int) []int {
	ids := make([]NodeID, nodes)
	for i := range ids {
		ids[i] = NodeID(i + 1)
	}
	ring := lockmgr.NewRing(ids)
	homes := make([]int, locks)
	for l := range homes {
		homes[l] = int(ring.HomeOf(uint32(l))) - 1
	}
	return homes
}

// Counter names read as deltas (Node.Stats, Cluster.Store().Stats()).
const (
	ctrRangesLogged        = metrics.CtrRangesLogged
	ctrBytesLogged         = metrics.CtrBytesLogged
	ctrGroupBatches        = metrics.CtrGroupBatches
	ctrGroupBatchRecs      = metrics.CtrGroupBatchRecords
	ctrGroupBatchBytes     = metrics.CtrGroupBatchBytes
	ctrGroupSyncs          = metrics.CtrGroupSyncs
	ctrBytesSent           = metrics.CtrBytesSent
	ctrBytesSentRaw        = metrics.CtrBytesSentRaw
	ctrMsgsSent            = metrics.CtrMsgsSent
	ctrBatchFrames         = metrics.CtrBatchFrames
	ctrBatchRecords        = metrics.CtrBatchRecords
	ctrSendStalls          = metrics.CtrSendStalls
	ctrRecordsStale        = metrics.CtrRecordsStale
	ctrRecordsApplied      = metrics.CtrRecordsApplied
	ctrApplyBackpress      = metrics.CtrApplyBackpressure
	ctrApplyWorkerBusy     = metrics.CtrApplyWorkerBusyNS
	ctrLockAcquires        = metrics.CtrLockAcquires
	ctrLockRemote          = metrics.CtrLockRemote
	ctrCatchupRecords      = metrics.CtrCatchupRecords
	ctrEvictions           = metrics.CtrEvictions
	ctrDecodeErrors        = metrics.CtrDecodeErrors
	ctrApplyErrors         = metrics.CtrApplyErrors
	ctrSendErrors          = metrics.CtrSendErrors
	storeOpPrefix          = "op_" // store.Server per-op counters
	storeOpBytesIn         = "op_bytes_in"
	storeOpErrors          = "op_errors"
	numPhases              = 5
	phaseDetect        int = int(metrics.PhaseDetect)
	phaseCollect       int = int(metrics.PhaseCollect)
	phaseDisk          int = int(metrics.PhaseDiskIO)
	phaseNet           int = int(metrics.PhaseNetIO)
	phaseApply         int = int(metrics.PhaseApply)
)

// Direct layer entry points used by the idle probes.

// newStoreLog starts a storage server and returns a client log device
// on it (the path a Flush commit's force takes).
func newStoreLog(node uint32) (dev Device, closeAll func(), err error) {
	srv, err := lbc.NewStoreServer("127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	cli, err := store.Dial(srv.Addr())
	if err != nil {
		srv.Close()
		return nil, nil, err
	}
	return cli.LogDevice(node), func() { cli.Close(); srv.Close() }, nil
}

// newMeshPair returns two connected TCP meshes with ids 1 and 2.
func newMeshPair() (a, b *Mesh, err error) {
	if a, err = netproto.NewTCPMesh(1, "127.0.0.1:0", map[NodeID]string{}); err != nil {
		return nil, nil, err
	}
	if b, err = netproto.NewTCPMesh(2, "127.0.0.1:0", map[NodeID]string{}); err != nil {
		a.Close()
		return nil, nil, err
	}
	a.SetPeer(2, b.Addr())
	b.SetPeer(1, a.Addr())
	return a, b, nil
}

// memLog copies a captured log image onto a fresh in-memory device.
func memLog(img []byte) (Device, error) {
	d := wal.NewMemDevice()
	if len(img) > 0 {
		if _, err := d.Append(img); err != nil {
			return nil, err
		}
	}
	return d, d.Sync()
}

// readLog returns the bytes currently on a log device.
func readLog(d Device) ([]byte, error) {
	rc, err := d.Open(0)
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	return io.ReadAll(rc)
}

// scanLog decodes every record on the device (the wal scan recovery
// and catch-up start with) and returns the record count.
func scanLog(d Device) (int, error) {
	txs, err := wal.ReadDevice(d)
	return len(txs), err
}

// mergeLogs is the paper's log-merge utility over captured logs.
func mergeLogs(out Device, in ...Device) (int, error) { return lbc.MergeLogs(out, in...) }

// recoverLog replays a merged log into fresh images and returns the
// bytes installed.
func recoverLog(merged Device) (int, error) {
	res, err := lbc.Recover(merged, rvm.NewMemStore(), false)
	if err != nil {
		return 0, err
	}
	return res.BytesApplied, nil
}
