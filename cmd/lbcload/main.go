// Command lbcload is the repository's end-to-end load benchmark: one
// process builds a 3-node production-configuration cluster through the
// public facade, drives one of five workloads at it, checks every image
// against a model kept by the generator, and prints every metric by
// name with its unit. See README.md in this directory.
//
//	lbcload --workload private --seed 1 --seconds 15 --trace 0
//	lbcload -sets 5 -out a.json        # every workload, five times
//	lbcload -compare a.json b.json     # exit 1 on a regression
//	lbcload -manifest                  # print BENCHMARK.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"time"
)

// watchdog bounds a run: nothing in the production configuration times
// out a blocked acquire, so a wedged cluster would otherwise hang the
// benchmark instead of failing it.
const watchdog = 150 * time.Second

func main() {
	var (
		workload = flag.String("workload", "", "private, shared, bulk, paced or crash")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed gives the same operation streams and schedule")
		seconds  = flag.Float64("seconds", runSeconds, "length of the measured window")
		trace    = flag.Int("trace", 0, "0: plain run, end-to-end metrics; 1: traced run, per-layer metrics")
		spans    = flag.String("spans", "", "traced run: write the bench.* spans to this file as JSONL")
		sets     = flag.Int("sets", 0, "run this many sets of every workload (alternating order) and report medians and quartiles")
		out      = flag.String("out", "", "with -sets: write the result file here")
		compare  = flag.Bool("compare", false, "compare two result files: lbcload -compare a.json b.json")
		mani     = flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()

	switch {
	case *mani:
		os.Stdout.Write(manifest())
		return
	case *compare:
		if flag.NArg() != 2 {
			fatal("usage: lbcload -compare a.json b.json")
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	case *sets > 0:
		os.Exit(runSets(os.Stdout, *sets, *seed, *seconds, *out))
	}

	known := false
	for _, w := range workloadDefs {
		known = known || w.Name == *workload
	}
	if !known {
		fatal("unknown workload %q: want private, shared, bulk, paced or crash", *workload)
	}
	time.AfterFunc(watchdog, func() {
		fmt.Fprintf(os.Stderr, "lbcload: run exceeded %v; goroutines:\n", watchdog)
		_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
		os.Exit(3)
	})

	cfg := referenceConfig(*workload, *seed, *seconds, clientCount())
	var rep *report
	if *trace == 1 {
		rep = runTrace(cfg, *spans)
	} else {
		rep = runPlain(cfg)
	}
	rep.print(os.Stdout)
}

func fatal(format string, a ...any) {
	fmt.Fprintf(os.Stderr, "lbcload: "+format+"\n", a...)
	os.Exit(2)
}

// clientCount is the number of generator goroutines: never more than
// the processors the load and the cluster share.
func clientCount() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// envelope is what every result carries about where it was measured.
type envelope struct {
	Host    string `json:"host"`
	NProc   int    `json:"nproc"`
	Go      string `json:"go"`
	Commit  string `json:"commit"`
	Seed    int64  `json:"seed"`
	Clients int    `json:"clients"`
}

func newEnvelope(seed int64) envelope {
	host, _ := os.Hostname()
	commit := "unknown" // a checkout without .git has no revision to stamp
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return envelope{Host: host, NProc: runtime.NumCPU(), Go: runtime.Version(), Commit: commit, Seed: seed, Clients: clientCount()}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output, the one the driver
// reads.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// print writes every metric by name with its unit, the notes and
// problems, a summary object that ends with "claim": null (this
// benchmark defines names and claims no gain), and the result line.
func (rep *report) print(w io.Writer) {
	env := newEnvelope(rep.cfg.seed)
	fmt.Fprintf(w, "lbcload workload=%s seed=%d seconds=%g trace=%v clients=%d host=%s nproc=%d %s commit=%s\n",
		rep.cfg.workload, rep.cfg.seed, rep.cfg.seconds, rep.trace, env.Clients, env.Host, env.NProc, env.Go, env.Commit)
	reported := endToEnd
	if rep.trace {
		reported = perLayer
	}
	line := resultLine{Correct: len(rep.problems) == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metricValue{}}
	if line.Attempted < 1 {
		line.Attempted = 1
	}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if v, ok := rep.metrics[d.Name]; ok {
				fmt.Fprintf(w, "  %-40s %16.4f %s\n", d.Name, v, d.Unit)
			}
		}
	}
	for _, d := range reported {
		line.Metrics[d.Name] = metricValue{rep.metrics[d.Name], d.Unit}
	}
	for _, n := range rep.notes {
		fmt.Fprintln(w, n)
	}
	for _, p := range rep.problems {
		fmt.Fprintln(w, "PROBLEM:", p)
	}
	summary, _ := json.Marshal(struct {
		envelope
		Workload string             `json:"workload"`
		Seconds  float64            `json:"seconds"`
		Trace    bool               `json:"trace"`
		Correct  bool               `json:"correct"`
		Metrics  map[string]float64 `json:"metrics"`
		Claim    *string            `json:"claim"`
	}{env, rep.cfg.workload, rep.cfg.seconds, rep.trace, line.Correct, rep.metrics, nil})
	fmt.Fprintf(w, "%s\n", summary)
	last, _ := json.Marshal(line)
	fmt.Fprintf(w, "%s\n", last)
}
