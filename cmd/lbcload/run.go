package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

var processStart = time.Now()

// rounds is how many times a plain run sets up a fresh cluster and
// measures a window of --seconds / rounds on it. Every end-to-end
// metric is the median of its per-round values, which drops a round a
// noisy neighbour disturbed, and setup_s is the median of the set-ups
// (extraSetups more are only timed).
// Fresh clusters also keep the logs short: the store holds them in
// memory, and appending to a log of hundreds of MiB stops the world for
// as long as the copy takes — over a second at 15 s of bulk, within
// reach of the failure detector's 2 s suspicion threshold.
const (
	rounds      = 3
	extraSetups = 2
)

// windowStats is what one measured window yields.
type windowStats struct {
	elapsed           time.Duration
	attempted, failed int
	tx, acq, commit   []int64 // ascending ns
	late              []int64 // ascending ns, paced only
	duringCkpt        []int64 // ascending ns: tx due while a paced checkpoint ran
	sloMiss           int
	userBytes         int64
	nodes, store      tally // counter deltas over the window
	logGrowth         int64 // sum of Cluster.Log(i).Size() deltas
	checkpoints       int
	drainNS           int64
	depth             []int64 // ascending apply-queue depth samples
	errs              []string
}

func (w windowStats) committed() int { return w.attempted - w.failed }

func (r *rig) logSizes() int64 {
	var sum int64
	for i := 0; i < r.size; i++ {
		if n, err := r.cl.Log(i).Size(); err == nil {
			sum += n
		}
	}
	return sum
}

// measure runs the window between two counter snapshots, waits for the
// peers to drain, and gathers the clients' samples. With sample set it
// polls the apply queues every 10 ms (the victim's excepted: its node
// is replaced under the sampler in crash).
func (r *rig) measure(d time.Duration, sample bool) windowStats {
	var w windowStats
	before, storeBefore, sizeBefore := r.tally(), r.storeTally(), r.logSizes()
	ckptBefore := len(r.ckptNS)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	if sample {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(10 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					for i := 0; i < victim; i++ {
						w.depth = append(w.depth, r.cl.Node(i).ApplyQueueDepth())
					}
				}
			}
		}()
	}
	w.elapsed = r.window(d)
	t := r.now()
	if err := r.quiesce(); err != nil {
		r.problem("drain: %v", err)
	}
	w.drainNS = r.now() - t
	close(stop)
	wg.Wait()

	w.nodes, w.store = r.tally().sub(before), r.storeTally().sub(storeBefore)
	w.logGrowth = r.logSizes() - sizeBefore
	w.checkpoints = len(r.ckptWindows) + len(r.ckptNS) - ckptBefore
	var tx, acq, commit, late [][]int64
	for _, c := range r.clients {
		w.attempted += c.attempted
		w.failed += c.failed
		w.userBytes += c.userBytes
		w.errs = append(w.errs, c.errs...)
		tx, acq, commit, late = append(tx, c.tx), append(acq, c.acq), append(commit, c.commit), append(late, c.late)
		for i, ns := range c.tx {
			if ns > sloNS {
				w.sloMiss++
			}
			if i < len(c.due) {
				for _, cw := range r.ckptWindows {
					if c.due[i] >= cw[0] && c.due[i] <= cw[1] {
						w.duringCkpt = append(w.duringCkpt, ns)
						break
					}
				}
			}
		}
	}
	w.tx, w.acq, w.commit, w.late = sorted(tx...), sorted(acq...), sorted(commit...), sorted(late...)
	w.duringCkpt, w.depth = sorted(w.duringCkpt), sorted(w.depth)
	return w
}

// report is one run's outcome.
type report struct {
	cfg       config
	trace     bool
	metrics   map[string]float64
	cycles    cycleSamples // of every rig of the run
	attempted int
	failed    int
	problems  []string
	notes     []string
}

func (rep *report) problem(format string, a ...any) {
	rep.problems = append(rep.problems, fmt.Sprintf(format, a...))
}

// window sets up a fresh rig, measures one window on it, verifies that
// every image converged on the model, and takes over what the rig
// found. keep, if not nil, sees the rig before it closes. setupS is how
// long the set-up took.
func (rep *report) window(cfg config, sample bool, keep func(*rig)) (w windowStats, setupS float64, ok bool) {
	t := time.Now()
	r, err := setup(cfg)
	if err != nil {
		rep.problem("set-up: %v", err)
		return w, 0, false
	}
	defer r.close()
	setupS = time.Since(t).Seconds()
	w = r.measure(time.Duration(cfg.seconds*float64(time.Second)), sample)
	if err := r.converge(); err != nil {
		r.problem("after the window: %v", err)
	}
	if keep != nil {
		keep(r)
	}
	rep.absorb(r, w)
	return w, setupS, true
}

// drill builds a fresh cluster and runs crash cycles on it, so that
// every workload reports what a restart costs; crash runs the same
// cycles in its windows instead. It is a fresh cluster because the
// first checkpoint after a long uncheckpointed window makes every node
// read every log whole (README.md, "Defects the rig steps around"). The
// last restart's logs are returned for the probes when capture is set.
func (rep *report) drill(cycles int, capture bool) (captured [][]byte) {
	cfg := rep.cfg
	cfg.ring, cfg.traced = false, false
	if cfg.workload != "crash" {
		cfg.workload, cfg.cycle.pre = "crash", 0
	}
	r, err := setup(cfg)
	if err != nil {
		rep.problem("crash-cycle drill: %v", err)
		return nil
	}
	defer r.close()
	for i := 0; i < cycles; i++ {
		if err := r.crashCycle(cfg.cycle, capture && i == cycles-1); err != nil {
			r.problem("crash cycle: %v", err)
			break
		}
	}
	if err := r.converge(); err != nil {
		r.problem("after the crash cycles: %v", err)
	}
	var w windowStats
	for _, c := range r.clients {
		w.attempted, w.failed, w.errs = w.attempted+c.attempted, w.failed+c.failed, append(w.errs, c.errs...)
	}
	rep.absorb(r, w)
	return r.captured
}

// absorb takes over what a rig and its window found: failures,
// problems, the crash-cycle samples, and the counters that must stay 0.
// Call it before the rig closes.
func (rep *report) absorb(r *rig, w windowStats) {
	rep.attempted += w.attempted
	rep.failed += w.failed
	rep.problems = append(rep.problems, r.problems...)
	r.problems = nil
	if w.failed > 0 {
		rep.problem("%d of %d transactions failed: %s", w.failed, w.attempted, strings.Join(w.errs, "; "))
	}
	rep.cycles.merge(r.cycleSamples)
	for _, cw := range r.ckptWindows {
		rep.cycles.ckptNS = append(rep.cycles.ckptNS, cw[1]-cw[0])
	}
	c := r.tally().c
	rep.metrics["membership.evictions"] += float64(c[ctrEvictions])
	rep.metrics["coherency.decode_errors"] += float64(c[ctrDecodeErrors])
	rep.metrics["coherency.apply_errors"] += float64(c[ctrApplyErrors])
}

// endToEndMetrics computes the user-visible numbers of one window.
func endToEndMetrics(m map[string]float64, w windowStats) {
	m["tx_per_s"] = ratio(float64(w.committed()), w.elapsed.Seconds())
	m["tx_p50_us"] = usec(percentile(w.tx, 0.50))
	m["tx_p99_us"] = usec(percentile(w.tx, 0.99))
	m["acquire_p99_us"] = usec(percentile(w.acq, 0.99))
	m["commit_p50_us"] = usec(percentile(w.commit, 0.50))
	m["commit_p99_us"] = usec(percentile(w.commit, 0.99))
	m["log_bytes_per_user_byte"] = ratio(float64(w.nodes.c[ctrGroupBatchBytes]), float64(w.userBytes))
}

// counterMetrics computes the per-layer numbers of one window that are
// deltas of program counters, per committed transaction, and the ones
// that fall out of the generator's own samples.
func counterMetrics(m map[string]float64, w windowStats) {
	c, tx := w.nodes.c, float64(w.committed())
	per := func(name string) float64 { return ratio(float64(c[name]), tx) }
	m["rvm.ranges_per_tx"] = per(ctrRangesLogged)
	m["wal.record_bytes_per_tx"] = per(ctrGroupBatchBytes)
	m["wal.header_bytes_per_range"] = ratio(float64(c[ctrGroupBatchBytes]-c[ctrBytesLogged]), float64(c[ctrRangesLogged]))
	m["wal.syncs_per_tx"] = per(ctrGroupSyncs)
	m["wal.batch_occupancy"] = ratio(float64(c[ctrGroupBatchRecs]), float64(c[ctrGroupBatches]))
	m["wal.compression_ratio"] = ratio(float64(c[ctrBytesSentRaw]), float64(c[ctrBytesSent]))
	var storeOps int64
	for name, v := range w.store.c {
		if strings.HasPrefix(name, storeOpPrefix) && name != storeOpBytesIn && name != storeOpErrors {
			storeOps += v
		}
	}
	m["store.ops_per_tx"] = ratio(float64(storeOps), tx)
	m["netproto.wire_bytes_per_tx"] = per(ctrBytesSent)
	m["netproto.msgs_per_tx"] = ratio(float64(c[ctrMsgsSent]+c[ctrLockRemote]), tx)
	m["coherency.frames_per_tx"] = per(ctrBatchFrames)
	m["coherency.records_per_frame"] = ratio(float64(c[ctrBatchRecords]), float64(c[ctrBatchFrames]))
	m["coherency.send_window_stalls"] = float64(c[ctrSendStalls])
	m["coherency.records_stale"] = float64(c[ctrRecordsStale])
	m["lockmgr.remote_msgs_per_acquire"] = ratio(float64(c[ctrLockRemote]), float64(c[ctrLockAcquires]))
	m["parapply.records_applied_per_tx"] = per(ctrRecordsApplied)
	m["parapply.apply_backpressure"] = float64(c[ctrApplyBackpress])
	m["parapply.worker_busy_share"] = ratio(float64(c[ctrApplyWorkerBusy]), float64(w.elapsed.Nanoseconds()*nodes))
	for name, p := range map[string]int{"detect": phaseDetect, "collect": phaseCollect, "disk": phaseDisk, "net": phaseNet, "apply": phaseApply} {
		m["phase."+name+"_us_per_tx"] = ratio(float64(w.nodes.phase[p])/1e3, tx)
	}
	m["coherency.checkpoint_count"] = float64(w.checkpoints)
	m["coherency.drain_ms"] = msec(w.drainNS)
	m["slo_miss_share"] = 0
	if len(w.late) > 0 { // open loop: a failed transaction counts as missed
		m["slo_miss_share"] = ratio(float64(w.sloMiss+w.failed), float64(w.attempted))
	}
	m["failed_share"] = ratio(float64(w.failed), float64(w.attempted))
	m["bench.generator_late_p99_us"] = usec(percentile(w.late, 0.99))
	m["bench.tx_p999_us"] = usec(percentile(w.tx, 0.999))
	m["acquire_p50_us"] = usec(percentile(w.acq, 0.50))
	m["bench.tx_p99_during_ckpt_us"] = usec(percentile(w.duringCkpt, 0.99))
}

// cycleMetrics are the medians over every crash cycle of the run.
func cycleMetrics(m map[string]float64, s cycleSamples) {
	m["recover_ms"] = msec(medianNS(s.recoverNS))
	m["first_commit_ms"] = msec(medianNS(s.firstCommitNS))
	m["coherency.checkpoint_ms_p50"] = msec(medianNS(s.ckptNS))
	m["coherency.crash_ms"] = msec(medianNS(s.crashNS))
	m["coherency.catchup_records_per_restart"] = float64(medianNS(s.catchupRecords))
	m["coherency.log_bytes_at_restart"] = float64(medianNS(s.logBytesAtRestart))
}

// check applies the rules every window must pass: enough samples behind
// each p99, and the workload still isolating the layer it was chosen
// for. m holds the window's counter metrics.
func (rep *report) check(w windowStats, m map[string]float64) {
	for name, n := range map[string]int{"tx": len(w.tx), "acquire": len(w.acq), "commit": len(w.commit)} {
		if n < rep.cfg.minP99 {
			rep.problem("too few samples: %d %s samples behind a p99, need %d", n, name, rep.cfg.minP99)
		}
	}
	rule := func(ok bool, format string, a ...any) {
		line := fmt.Sprintf(format, a...)
		if ok {
			rep.notes = append(rep.notes, "discrimination ok: "+line)
		} else {
			rep.problem("discrimination failed: %s", line)
		}
	}
	remote, occupancy := m["lockmgr.remote_msgs_per_acquire"], m["wal.batch_occupancy"]
	switch rep.cfg.workload {
	case "private":
		rule(remote < 0.05, "private lockmgr.remote_msgs_per_acquire = %.4f < 0.05", remote)
		rule(occupancy > 1, "private wal.batch_occupancy = %.3f > 1", occupancy)
	case "shared":
		rule(remote > 0.5, "shared lockmgr.remote_msgs_per_acquire = %.4f > 0.5", remote)
	case "bulk":
		if ref, ok := m["private.wire_bytes_per_tx"]; ok {
			wire := m["netproto.wire_bytes_per_tx"]
			rule(wire >= 20*ref, "bulk netproto.wire_bytes_per_tx = %.0f >= 20 x private's %.0f", wire, ref)
		}
	case "paced":
		rule(w.checkpoints >= 1, "paced checkpoints in this window = %d >= 1 (coherency.checkpoint_count >= 3 over a run)", w.checkpoints)
	}
}

// finish computes what spans the whole run and applies its rules.
func (rep *report) finish() {
	cycleMetrics(rep.metrics, rep.cycles)
	for _, name := range []string{"membership.evictions", "coherency.decode_errors", "coherency.apply_errors"} {
		if rep.metrics[name] != 0 {
			rep.problem("%s = %v, must be 0", name, rep.metrics[name])
		}
	}
}

// runPlain is the untraced run: rounds windows on fresh clusters, each
// verified, then the crash-cycle drill. Every metric of a window is
// reported as the median over the rounds.
func runPlain(cfg config) *report {
	rep := &report{cfg: cfg, metrics: map[string]float64{}}
	per := cfg
	per.seconds = cfg.seconds / rounds
	perRound := map[string][]float64{}
	// Two set-ups that are only timed, so that setup_s is a median of
	// five; the first also pays for process start.
	start := processStart
	for i := 0; i < extraSetups; i++ {
		r, err := setup(per)
		if err != nil {
			rep.problem("set-up: %v", err)
			rep.attempted = 1
			return rep
		}
		perRound["setup_s"] = append(perRound["setup_s"], time.Since(start).Seconds())
		r.close()
		start = time.Now()
	}
	var checkpoints float64
	for i := 0; i < rounds; i++ {
		per.seed = cfg.seed*rounds + int64(i)
		w, setupS, ok := rep.window(per, false, nil)
		if !ok {
			rep.attempted = 1
			return rep
		}
		m := map[string]float64{"setup_s": setupS}
		endToEndMetrics(m, w)
		counterMetrics(m, w)
		rep.check(w, m)
		if w.checkpoints == 0 && w.logGrowth != w.nodes.c[ctrGroupBatchBytes] {
			rep.problem("log growth %d B by Log(i).Size() but %d B by the %s counter", w.logGrowth, w.nodes.c[ctrGroupBatchBytes], ctrGroupBatchBytes)
		}
		checkpoints += m["coherency.checkpoint_count"]
		for name, v := range m {
			perRound[name] = append(perRound[name], v)
		}
	}
	for name, v := range perRound {
		rep.metrics[name] = median(v)
	}
	rep.metrics["coherency.checkpoint_count"] = checkpoints
	if cfg.workload != "crash" {
		rep.drill(cfg.epilogue, false)
	}
	rep.metrics["peak_rss_mb"] = peakRSSMiB()
	rep.finish()
	return rep
}

// peakRSSMiB reads the process's peak resident set from /proc.
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}
