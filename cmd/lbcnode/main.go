// Command lbcnode runs one node of a real multi-process log-based
// coherency cluster: it connects to a storage server, joins the TCP
// mesh, maps the shared region, runs a locked write workload, and
// prints a checksum of the final image — identical on every node if
// coherency holds.
//
// Example (three shells plus a server):
//
//	storeserver -listen 127.0.0.1:7070
//	lbcnode -node 1 -listen 127.0.0.1:7101 -peers 2=127.0.0.1:7102,3=127.0.0.1:7103 -store 127.0.0.1:7070
//	lbcnode -node 2 -listen 127.0.0.1:7102 -peers 1=127.0.0.1:7101,3=127.0.0.1:7103 -store 127.0.0.1:7070
//	lbcnode -node 3 -listen 127.0.0.1:7103 -peers 1=127.0.0.1:7101,2=127.0.0.1:7102 -store 127.0.0.1:7070
//
// All three print the same final checksum.
//
// Passing primary,backup to -store attaches the node to a mirrored
// server pair (storeserver -mirror): the client fails over to the
// backup when the primary dies.
//
//	storeserver -listen 127.0.0.1:7071 &
//	storeserver -listen 127.0.0.1:7070 -mirror 127.0.0.1:7071 &
//	lbcnode ... -store 127.0.0.1:7070,127.0.0.1:7071
package main

import (
	"flag"
	"fmt"
	"hash/crc32"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"lbc/internal/coherency"
	"lbc/internal/membership"
	"lbc/internal/metrics"
	"lbc/internal/netproto"
	"lbc/internal/obs"
	"lbc/internal/rvm"
	"lbc/internal/store"
)

func main() {
	var (
		nodeID    = flag.Uint("node", 0, "this node's id (required, unique)")
		listen    = flag.String("listen", "", "mesh listen address (required)")
		peersSpec = flag.String("peers", "", "peer list: id=addr,id=addr (required)")
		storeAddr = flag.String("store", "", "storage server address, or primary,backup of a mirrored pair (required)")
		region    = flag.Int("region", 1<<20, "shared region size in bytes")
		locks     = flag.Int("locks", 4, "number of segment locks")
		writes    = flag.Int("writes", 200, "locked writes to perform")
		prop      = flag.String("propagation", "eager", "eager | lazy | piggyback")
		migrate   = flag.Bool("migrate", false, "enable dominant-writer lock-home migration")
		interest  = flag.Bool("interest", false, "route eager updates only to peers interested in the written locks")
		heartbeat = flag.Duration("heartbeat", 0, "failure-detector tick interval (0 disables live membership)")
		seed      = flag.Int64("seed", 0, "workload seed (default: node id)")
		debugAddr = flag.String("debug", "", "serve /debug/lbc (metrics, vars, trace, pprof) on this address")
		traceFile = flag.String("trace", "", "dump the trace ring as JSONL to this file at exit")
		traceCap  = flag.Int("trace-cap", 1<<16, "trace ring capacity in spans")
	)
	flag.Parse()
	if *nodeID == 0 || *listen == "" || *peersSpec == "" || *storeAddr == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *seed == 0 {
		*seed = int64(*nodeID)
	}

	peers, err := parsePeers(*peersSpec)
	if err != nil {
		die(err)
	}
	ids := make([]netproto.NodeID, 0, len(peers)+1)
	ids = append(ids, netproto.NodeID(*nodeID))
	for id := range peers {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	var tracer *obs.Tracer
	if *debugAddr != "" || *traceFile != "" {
		tracer = obs.NewTracer(uint32(*nodeID), *traceCap)
	}

	// One address: a single storage server. Two: a mirrored pair, with
	// failover from the primary to the backup.
	var cli *store.Client
	if addrs := splitAddrs(*storeAddr); len(addrs) > 1 {
		cli, err = store.DialFailover(addrs...)
	} else {
		cli, err = store.Dial(*storeAddr)
	}
	if err != nil {
		die(err)
	}
	defer cli.Close()
	r, err := rvm.Open(rvm.Options{
		Node:  uint32(*nodeID),
		Log:   cli.LogDevice(uint32(*nodeID)),
		Data:  cli,
		Trace: tracer,
	})
	if err != nil {
		die(err)
	}

	if *traceFile != "" {
		defer func() {
			f, err := os.Create(*traceFile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "lbcnode: trace dump:", err)
				return
			}
			defer f.Close()
			if err := tracer.WriteJSONL(f); err != nil {
				fmt.Fprintln(os.Stderr, "lbcnode: trace dump:", err)
			}
		}()
	}

	mesh, err := netproto.NewTCPMesh(netproto.NodeID(*nodeID), *listen, peers)
	if err != nil {
		die(err)
	}
	defer mesh.Close()

	// With -heartbeat, a failure detector rides the mesh and the
	// coherency layer speaks through an epoch fence: update frames carry
	// the sender's membership epoch and frames from a superseded epoch
	// (or an evicted peer) are dropped at delivery.
	var tr netproto.Transport = mesh
	var mon *membership.Monitor
	var mstats *metrics.Stats
	if *heartbeat > 0 {
		mstats = metrics.NewStats()
		mon = membership.New(membership.Config{
			Transport: mesh,
			Nodes:     ids,
			Stats:     mstats,
			Trace:     tracer,
		})
		defer mon.Close()
		tr = membership.NewFence(mesh, mon, mstats, []uint8{
			coherency.MsgUpdateBatch, coherency.MsgUpdateBatchC,
		})
	}

	var propagation coherency.Propagation
	switch *prop {
	case "lazy":
		propagation = coherency.Lazy
	case "piggyback":
		propagation = coherency.Piggyback
	case "eager":
		propagation = coherency.Eager
	default:
		die(fmt.Errorf("unknown propagation %q", *prop))
	}
	n, err := coherency.New(coherency.Options{
		RVM:             r,
		Transport:       tr,
		Nodes:           ids,
		Propagation:     propagation,
		PeerLogs:        cli.LogDevice,
		InterestRouting: *interest,
		Membership:      mon,
	})
	if err != nil {
		die(err)
	}
	defer n.Close()
	if *migrate {
		var epoch func() uint32
		if mon != nil {
			epoch = mon.Epoch
		}
		n.Locks().EnableMigration(epoch)
	}
	if mon != nil {
		mon.Start(*heartbeat)
	}

	if *debugAddr != "" {
		mreg := obs.NewRegistry()
		mreg.Register("rvm", r.Stats())
		mreg.Register("store", cli.Stats())
		mreg.RegisterGauge("applier_parked", func() int64 { return int64(n.Parked()) })
		mreg.RegisterGauge("apply_queue_depth", func() int64 { return n.ApplyQueueDepth() })
		// Live wire compression ratio, scaled x1000 (gauges are integers):
		// raw update bytes over actual post-compression wire bytes.
		mreg.RegisterGauge("wire_compression_ratio_x1000", func() int64 {
			wire := r.Stats().Counter(metrics.CtrBytesSent)
			if wire == 0 {
				return 0
			}
			return r.Stats().Counter(metrics.CtrBytesSentRaw) * 1000 / wire
		})
		if mon != nil {
			mreg.Register("membership", mstats)
			mon.Export(mreg)
		}
		go func() {
			if err := http.ListenAndServe(*debugAddr, obs.Handler(mreg, tracer)); err != nil {
				fmt.Fprintln(os.Stderr, "lbcnode: debug server:", err)
			}
		}()
		fmt.Printf("lbcnode %d: /debug/lbc on http://%s/debug/lbc/metrics\n", *nodeID, *debugAddr)
	}

	reg, err := n.MapRegion(1, *region)
	if err != nil {
		die(err)
	}
	segLen := uint64(*region / *locks)
	for l := 0; l < *locks; l++ {
		n.AddSegment(coherency.Segment{
			LockID: uint32(l), Region: 1,
			Off: uint64(l) * segLen, Len: segLen,
		})
	}
	fmt.Printf("lbcnode %d: mapped %d bytes, waiting for %d peers...\n", *nodeID, *region, len(peers))
	if err := n.WaitPeers(1, len(peers), 60*time.Second); err != nil {
		die(err)
	}

	// Workload: locked fine-grained writes round-robin over segments.
	// The first 256 bytes of segment 0 are reserved as per-node done
	// flags for the end-of-run barrier.
	const flagArea = 256
	rng := rand.New(rand.NewSource(*seed))
	start := time.Now()
	for i := 0; i < *writes; i++ {
		lock := uint32(i % *locks)
		tx := n.Begin(rvm.NoRestore)
		if err := tx.Acquire(lock); err != nil {
			die(err)
		}
		base := uint64(lock) * segLen
		span := int(segLen) - 16
		min := 0
		if lock == 0 {
			min = flagArea
			span -= flagArea
		}
		off := base + uint64(min+rng.Intn(span))
		stamp := fmt.Sprintf("n%02d-%06d", *nodeID, i)
		if err := tx.Write(reg, off, []byte(stamp)); err != nil {
			die(err)
		}
		if _, err := tx.Commit(rvm.NoFlush); err != nil {
			die(err)
		}
	}
	elapsed := time.Since(start)

	// Barrier: publish our done flag under lock 0, then wait until
	// every node's flag is visible (each check re-acquires the lock,
	// so the interlock keeps pulling updates in).
	tx := n.Begin(rvm.NoRestore)
	if err := tx.Acquire(0); err != nil {
		die(err)
	}
	if err := tx.Write(reg, uint64(*nodeID), []byte{1}); err != nil {
		die(err)
	}
	if _, err := tx.Commit(rvm.NoFlush); err != nil {
		die(err)
	}
	barrierDeadline := time.Now().Add(2 * time.Minute)
	for {
		tx := n.Begin(rvm.NoRestore)
		if err := tx.Acquire(0); err != nil {
			die(err)
		}
		all := true
		for _, id := range ids {
			if reg.Bytes()[uint64(id)] == 0 {
				all = false
			}
		}
		if _, err := tx.Commit(rvm.NoFlush); err != nil {
			die(err)
		}
		if all {
			break
		}
		if time.Now().After(barrierDeadline) {
			die(fmt.Errorf("timed out waiting for peers to finish"))
		}
		time.Sleep(50 * time.Millisecond)
	}
	// Quiesce: one cycle through every lock now observes all updates
	// (every writer finished before setting its flag).
	for l := 0; l < *locks; l++ {
		tx := n.Begin(rvm.NoRestore)
		if err := tx.Acquire(uint32(l)); err != nil {
			die(err)
		}
		if _, err := tx.Commit(rvm.NoFlush); err != nil {
			die(err)
		}
	}
	// Exit barrier: publish a second flag and linger until every
	// node's is visible, so lock managers stay reachable while peers
	// finish their own quiesce. Eager propagation applies the flags
	// without further lock traffic; a grace timeout bounds the wait.
	txe := n.Begin(rvm.NoRestore)
	if err := txe.Acquire(0); err != nil {
		die(err)
	}
	if err := txe.Write(reg, uint64(16+int(*nodeID)), []byte{1}); err != nil {
		die(err)
	}
	if _, err := txe.Commit(rvm.NoFlush); err != nil {
		die(err)
	}
	exitDeadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(exitDeadline) {
		all := true
		for _, id := range ids {
			if reg.Bytes()[16+uint64(id)] == 0 {
				all = false
			}
		}
		if all {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Checksum excludes the barrier-flag area, whose bytes settle at
	// different times on different nodes.
	sum := crc32.ChecksumIEEE(reg.Bytes()[flagArea:])
	s := n.Stats()
	fmt.Printf("lbcnode %d: %d writes in %v; final image crc32=%08x\n", *nodeID, *writes, elapsed, sum)
	fmt.Printf("lbcnode %d: sent %d bytes / %d msgs, applied %d records from peers\n",
		*nodeID,
		s.Counter(metrics.CtrBytesSent), s.Counter(metrics.CtrMsgsSent),
		s.Counter(metrics.CtrRecordsApplied))
}

func splitAddrs(spec string) []string {
	var out []string
	for _, a := range strings.Split(spec, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

func parsePeers(spec string) (map[netproto.NodeID]string, error) {
	out := map[netproto.NodeID]string{}
	for _, part := range strings.Split(spec, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad peer %q (want id=addr)", part)
		}
		id, err := strconv.ParseUint(kv[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("bad peer id %q: %v", kv[0], err)
		}
		out[netproto.NodeID(id)] = kv[1]
	}
	return out, nil
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "lbcnode:", err)
	os.Exit(1)
}
