package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// A result file is what -sets writes and -compare reads: where it was
// measured, and one entry per run with its end-to-end metrics.
type resultFile struct {
	envelope
	Seconds float64  `json:"seconds"`
	Runs    []setRun `json:"runs"`
}

type setRun struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
}

// values gathers one metric of one workload over a file's runs.
func (f *resultFile) values(workload, metric string) []float64 {
	var v []float64
	for _, r := range f.Runs {
		if r.Workload == workload {
			if x, ok := r.Metrics[metric]; ok {
				v = append(v, x)
			}
		}
	}
	return v
}

// spread is the inter-quartile distance as a share of the median, the
// driver's measure of run-to-run noise.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, q3 := quartiles(v)
	if q3 < q1 { // two samples: the exclusive method extrapolates past both
		q1, q3 = q3, q1
	}
	return ratio(q3-q1, median(v))
}

// runSets runs every workload k times, each run in a process of its
// own as the driver does, alternating the workload order from set to
// set so that no workload always runs on a warm or a cold machine. Set
// s uses seed+s.
func runSets(w io.Writer, k int, seed int64, seconds float64, out string) int {
	self, err := os.Executable()
	if err != nil {
		fatal("find own binary: %v", err)
	}
	file := resultFile{envelope: newEnvelope(seed), Seconds: seconds}
	status := 0
	for s := 0; s < k; s++ {
		for i := range workloadDefs {
			def := workloadDefs[i]
			if s%2 == 1 {
				def = workloadDefs[len(workloadDefs)-1-i]
			}
			cmd := exec.Command(self, "--workload", def.Name, "--seed", strconv.FormatInt(seed+int64(s), 10),
				"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(w, "set %d %s: %v\n", s, def.Name, err)
				status = 1
				continue
			}
			lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
			var line resultLine
			if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
				fmt.Fprintf(w, "set %d %s: result line: %v\n", s, def.Name, err)
				status = 1
				continue
			}
			run := setRun{Workload: def.Name, Seed: seed + int64(s), Correct: line.Correct,
				Attempted: line.Attempted, Failed: line.Failed, Metrics: map[string]float64{}}
			for name, mv := range line.Metrics {
				run.Metrics[name] = mv.Value
			}
			if !line.Correct {
				status = 1
			}
			file.Runs = append(file.Runs, run)
			fmt.Fprintf(w, "set %d %-8s correct=%v attempted=%d failed=%d tx_per_s=%.0f\n",
				s, def.Name, line.Correct, line.Attempted, line.Failed, run.Metrics["tx_per_s"])
		}
	}
	fmt.Fprintf(w, "\n%-8s %-26s %14s %14s %14s %8s %6s\n", "workload", "metric", "median", "q1", "q3", "spread", "bound")
	for _, def := range workloadDefs {
		for _, md := range endToEnd {
			v := file.values(def.Name, md.Name)
			q1, q3 := quartiles(v)
			mark := ""
			if spread(v) > md.Bound {
				mark = "  wider than bound"
			}
			fmt.Fprintf(w, "%-8s %-26s %14.4f %14.4f %14.4f %7.1f%% %5.0f%%%s\n",
				def.Name, md.Name, median(v), q1, q3, 100*spread(v), 100*md.Bound, mark)
		}
	}
	if out != "" {
		b, _ := json.MarshalIndent(file, "", " ")
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			fatal("write %s: %v", out, err)
		}
	}
	return status
}

func loadResults(path string) *resultFile {
	b, err := os.ReadFile(path)
	if err != nil {
		fatal("%v", err)
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		fatal("%s: %v", path, err)
	}
	return &f
}

// verdict classes one workload x metric pair: how much worse b's median
// is than a's (positive is worse, whichever way the metric points), and
// whether that is within the bound, beyond it, or undecidable because
// either side's own spread is wider than the bound.
func verdict(md metricDef, a, b []float64) (worse float64, status string) {
	ma, mb := median(a), median(b)
	worse = ratio(mb-ma, ma)
	if md.Better == higher {
		worse = -worse
	}
	switch {
	case len(a) == 0 || len(b) == 0:
		return 0, "missing"
	case spread(a) > md.Bound || spread(b) > md.Bound:
		return worse, "unresolved"
	case worse > md.Bound:
		return worse, "REGRESSION"
	}
	return worse, "ok"
}

// compareFiles prints, per workload and end-to-end metric, both medians,
// their difference and the bound, and returns 1 if any pair regressed.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, b := loadResults(pathA), loadResults(pathB)
	fmt.Fprintf(w, "a: %s commit %s host %s nproc %d %s seed %d\n", pathA, a.Commit, a.Host, a.NProc, a.Go, a.Seed)
	fmt.Fprintf(w, "b: %s commit %s host %s nproc %d %s seed %d\n", pathB, b.Commit, b.Host, b.NProc, b.Go, b.Seed)
	fmt.Fprintf(w, "\n%-8s %-26s %14s %14s %8s %6s  %s\n", "workload", "metric", "median a", "median b", "worse", "bound", "verdict")
	status := 0
	for _, def := range workloadDefs {
		for _, md := range endToEnd {
			va, vb := a.values(def.Name, md.Name), b.values(def.Name, md.Name)
			worse, v := verdict(md, va, vb)
			if v == "REGRESSION" {
				status = 1
			}
			fmt.Fprintf(w, "%-8s %-26s %14.4f %14.4f %+7.1f%% %5.0f%%  %s\n",
				def.Name, md.Name, median(va), median(vb), 100*worse, 100*md.Bound, v)
		}
	}
	return status
}
