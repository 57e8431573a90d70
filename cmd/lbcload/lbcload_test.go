package main

import (
	"bytes"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestPercentileIsExactNearestRank(t *testing.T) {
	asc := make([]int64, 1000)
	for i := range asc {
		asc[i] = int64(i + 1)
	}
	for _, tc := range []struct {
		q    float64
		want int64
	}{{0.50, 500}, {0.99, 990}, {0.999, 999}, {1, 1000}, {0, 1}} {
		if got := percentile(asc, tc.q); got != tc.want {
			t.Errorf("percentile(1..1000, %v) = %d, want %d", tc.q, got, tc.want)
		}
	}
	if got := percentile(sorted([]int64{40, 10}, []int64{30, 20}), 0.5); got != 20 {
		t.Errorf("p50 of {10,20,30,40} = %d, want 20 (the smallest value with half the samples at or below it)", got)
	}
	// One slow sample in a hundred must be the p99 itself, not averaged
	// into a bucket.
	outlier := sorted(append(make([]int64, 99), 7_000_000))
	if got := percentile(outlier, 1); got != 7_000_000 {
		t.Errorf("max = %d", got)
	}
	if got := percentile(outlier, 0.99); got != 0 {
		t.Errorf("p99 of 99 zeros and one outlier = %d, want 0", got)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3 := quartiles(v)
	if q1 != 2.75 || q3 != 8.25 || median(v) != 5.5 {
		t.Errorf("quartiles = %v, %v, median %v; want 2.75, 8.25, 5.5", q1, q3, median(v))
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles = %v, %v; want 1.5, 12", q1, q3)
	}
}

// The open loop must time each request from when it was due: one stall
// in the backend has to show in the latency of the requests queued
// behind it, which a closed loop (timing from when the request was
// actually sent) would hide.
func TestOpenLoopTimesFromDue(t *testing.T) {
	const (
		n       = 200
		every   = int64(time.Millisecond)
		stallAt = 10
		stall   = 60 * time.Millisecond
	)
	sched := make([]int64, n)
	for i := range sched {
		sched[i] = int64(i) * every
	}
	epoch := time.Now()
	now := func() int64 { return int64(time.Since(epoch)) }
	fromDue, fromSend := make([]int64, 0, n), make([]int64, 0, n)
	i := 0
	runPaced(now, now(), [][]int64{sched}, func(_ int, due int64) {
		sent := now()
		if i == stallAt {
			time.Sleep(stall)
		}
		i++
		done := now()
		fromDue, fromSend = append(fromDue, done-due), append(fromSend, done-sent)
	})
	if len(fromDue) != n {
		t.Fatalf("ran %d of %d scheduled requests", len(fromDue), n)
	}
	// Request stallAt+5 was due 5 ms into a 60 ms stall.
	later := stallAt + 5
	if fromDue[later] < int64(stall)/2 {
		t.Errorf("request %d, queued behind the stall, shows %v from its due time; the stall must inflate it", later, time.Duration(fromDue[later]))
	}
	if fromSend[later] > int64(stall)/4 {
		t.Errorf("request %d took %v of service; the test's backend is slower than it assumes", later, time.Duration(fromSend[later]))
	}
	if fromDue[n-1] > int64(stall)/2 {
		t.Errorf("the last request still shows %v: the loop never caught up", time.Duration(fromDue[n-1]))
	}
}

func TestScheduleAndStreamsComeFromTheSeed(t *testing.T) {
	geo := geometry{segs: 32, segLen: 2048, hot: 8}
	a := newGenerator(geo, 7, 0, 2).stream("paced", 0, 500)
	b := newGenerator(geo, 7, 0, 2).stream("paced", 0, 500)
	c := newGenerator(geo, 8, 0, 2).stream("paced", 0, 500)
	same, differ := true, false
	for i := range a {
		same = same && a[i] == b[i]
		differ = differ || a[i] != c[i]
	}
	if !same || !differ {
		t.Errorf("streams: same seed equal = %v, other seed differs = %v", same, differ)
	}
	r1, r2 := newRNG(7, 1000), newRNG(7, 1000)
	s1, s2 := schedule(&r1, 1000, int64(time.Second)), schedule(&r2, 1000, int64(time.Second))
	if len(s1) != len(s2) || len(s1) < 800 || len(s1) > 1200 {
		t.Fatalf("schedule at 1000/s for 1 s has %d and %d entries", len(s1), len(s2))
	}
	for i := range s1 {
		if s1[i] != s2[i] || (i > 0 && s1[i] < s1[i-1]) {
			t.Fatalf("schedule entry %d: %d vs %d", i, s1[i], s2[i])
		}
	}
}

func TestModelCatchesLostUpdate(t *testing.T) {
	geo := geometry{segs: 4, segLen: 512, hot: 2}
	model, node := newShadow(geo), make([]byte, geo.size())
	write := func(seg int, salt uint32) {
		s := model.seg(seg)
		fillPattern(s[hdrLen:hdrLen+smallBytes], salt, 0)
		putHeader(s, headerCounter(s)+1)
		copy(node[seg*geo.segLen:], s)
	}
	write(1, 11)
	before := append([]byte(nil), node[geo.segLen:2*geo.segLen]...)
	write(1, 22)
	nodeSeg := node[geo.segLen : 2*geo.segLen]
	if err := checkWriter(nodeSeg, model.seg(1)); err != nil {
		t.Fatalf("healthy segment: %v", err)
	}
	if err := checkReader(nodeSeg, model.seg(1), 2); err != nil {
		t.Fatalf("healthy segment: %v", err)
	}
	if err := model.diffImage(node); err != nil {
		t.Fatalf("healthy image: %v", err)
	}

	copy(nodeSeg, before) // the second committed update never reached this node
	if err := checkWriter(nodeSeg, model.seg(1)); err == nil {
		t.Error("a writer did not notice the lost update")
	}
	if err := checkReader(nodeSeg, model.seg(1), 2); err == nil || !strings.Contains(err.Error(), "went back") {
		t.Errorf("a reader that had seen counter 2 got %v, want the counter going back", err)
	}
	if err := model.diffImage(node); err == nil || !strings.Contains(err.Error(), "segment 1") {
		t.Errorf("image comparison got %v, want segment 1 named", err)
	}

	nodeSeg[hdrLen+100] ^= 1 // a torn payload under an intact header
	if err := checkReader(nodeSeg, nodeSeg, 0); err == nil || !strings.Contains(err.Error(), "crc") {
		t.Errorf("a reader got %v, want a checksum mismatch", err)
	}
}

func smokeConfig(workload string) config {
	cfg := referenceConfig(workload, 5, 1.5, 2)
	cfg.geo = geometry{segs: 32, segLen: 2048, hot: 8}
	cfg.warmup, cfg.streamLen, cfg.pacedRate = 50, 1<<12, 500
	cfg.cycle, cfg.epilogue, cfg.minP99 = cycleSizes{pre: 200, tail: 60, outage: 30}, 1, 10
	return cfg
}

// A one-second run of every workload on a tiny region: every image
// equals the model, nothing fails, every end-to-end metric is there and
// is not 0.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, def := range workloadDefs {
		t.Run(def.Name, func(t *testing.T) {
			rep := runPlain(smokeConfig(def.Name))
			for _, p := range rep.problems {
				t.Error(p)
			}
			if rep.failed != 0 || rep.attempted < 100 {
				t.Errorf("attempted %d, failed %d", rep.attempted, rep.failed)
			}
			for _, d := range endToEnd {
				if v, ok := rep.metrics[d.Name]; !ok || v <= 0 {
					t.Errorf("%s = %v, present %v", d.Name, v, ok)
				}
			}
		})
	}
}

// The rig must notice a node whose image lost a committed update even
// though every transaction succeeded.
func TestSmokeConvergeCatchesDivergedNode(t *testing.T) {
	r, err := setup(smokeConfig("shared"))
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	r.runTimed(200 * time.Millisecond)
	if err := r.converge(); err != nil {
		t.Fatalf("healthy cluster: %v", err)
	}
	seg := r.regs[1].Bytes()[3*r.geo.segLen : 4*r.geo.segLen]
	seg[hdrLen+8] ^= 0xff
	if err := r.converge(); err == nil || !strings.Contains(err.Error(), "node 1") {
		t.Errorf("converge = %v, want node 1 reported", err)
	}
}

func TestSmokeTracedRun(t *testing.T) {
	cfg := smokeConfig("bulk")
	spans := t.TempDir() + "/spans.jsonl"
	rep := runTrace(cfg, spans)
	for _, p := range rep.problems {
		t.Error(p)
	}
	for _, d := range perLayer {
		if _, ok := rep.metrics[d.Name]; !ok {
			t.Errorf("%s missing from the traced run", d.Name)
		}
	}
	if c := rep.metrics["bench.tx_cover_share"]; c < 0.95 || c > 1.0001 {
		t.Errorf("bench.tx_cover_share = %v", c)
	}
	b, err := os.ReadFile(spans)
	if err != nil || bytes.Count(b, []byte("\n")) < 100 || !bytes.Contains(b, []byte(`"name":"bench.commit"`)) {
		t.Errorf("span file: %v, %d bytes", err, len(b))
	}
	var buf bytes.Buffer
	rep.print(&buf)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if summary := lines[len(lines)-2]; !strings.HasSuffix(summary, `"claim":null}`) {
		t.Errorf("summary does not end with the null claim: %s", summary[len(summary)-40:])
	}
	if last := lines[len(lines)-1]; !strings.HasPrefix(last, `{"correct":true,"attempted":`) {
		t.Errorf("result line: %.80s", last)
	}
}

func TestVerdict(t *testing.T) {
	lat := metricDef{Name: "tx_p50_us", Unit: "us", Better: lower, Bound: 0.10}
	thr := metricDef{Name: "tx_per_s", Unit: "1/s", Better: higher, Bound: 0.10}
	tight := []float64{100, 101, 99, 100, 102}
	for _, tc := range []struct {
		md   metricDef
		a, b []float64
		want string
	}{
		{lat, tight, []float64{104, 105, 103, 104, 106}, "ok"},
		{lat, tight, []float64{120, 121, 119, 120, 122}, "REGRESSION"},
		{lat, tight, []float64{80, 81, 79, 80, 82}, "ok"}, // faster is not a regression
		{thr, tight, []float64{80, 81, 79, 80, 82}, "REGRESSION"},
		{thr, tight, []float64{120, 121, 119, 120, 122}, "ok"},
		{lat, tight, []float64{90, 150, 100, 130, 70}, "unresolved"},
		{lat, tight, nil, "missing"},
	} {
		if _, got := verdict(tc.md, tc.a, tc.b); got != tc.want {
			t.Errorf("%s %v -> %v: %s, want %s", tc.md.Name, tc.a, tc.b, got, tc.want)
		}
	}
}

// BENCHMARK.json at the repository root is this package's tables
// (lbcload -manifest), within the limits the driver enforces.
func TestManifest(t *testing.T) {
	if got, err := os.ReadFile("../../BENCHMARK.json"); err == nil && !bytes.Equal(got, manifest()) {
		t.Error("BENCHMARK.json differs from `lbcload -manifest`; regenerate it")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloadDefs {
		check(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, d := range endToEnd {
		check(d.Name)
		if !unit.MatchString(d.Unit) || d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: unit %q bound %v", d.Name, d.Unit, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == lower)
	}
	for _, d := range perLayer {
		check(d.Name)
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
	}
	if !hasSetup || len(workloadDefs) < 2 || len(workloadDefs) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 || len(manifest()) > 64<<10 {
		t.Error("manifest is outside the driver's limits")
	}
}
