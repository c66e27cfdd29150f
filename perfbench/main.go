// Command perfbench is the repository's end-to-end benchmark. Closed-loop
// TPC-W and RUBiS clients drive an in-process controller through
// cjdbc.Session, and every layer under it does real work: there is no
// simulated service cost, so the figures measure the program itself.
//
// A run repeats whole rounds until its time is spent. Each round builds a
// fresh cluster, loads the data through the virtual database, takes an
// online backup of one backend, runs a fixed number of interactions per
// client, checks the outcome against computations made apart from the
// program, and finally re-integrates the backed-up backend from its dump
// and the recovery log.
//
// Usage, from the repository root:
//
//	sh perfbench/run.sh --workload tpcw-shopping --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
// wraps the layers' public seams and reports the per-layer metrics instead.
// The last line of standard output is one JSON object holding the verdict,
// the operation counts and the metrics. README.md describes the workloads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// report is the run's result line.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "workload seed; every input of the run derives from it")
	seconds := fs.Int("seconds", 30, "how long the run repeats rounds, in seconds")
	trace := fs.Int("trace", 0, "0 reports end-to-end metrics, 1 wraps the layer seams and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := workloadByName(*name)
	if w == nil {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, not %d\n", *trace)
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintf(stderr, "perfbench: --seconds must be at least 1\n")
		return 2
	}
	cfg := runConfig{
		seed:      *seed,
		clients:   w.clientCount(),
		traced:    *trace == 1,
		sizes:     fullSizes,
		perClient: w.perClient,
	}
	fmt.Fprintln(stdout, runRecord(w.name, cfg))

	budget := time.Duration(*seconds) * time.Second
	start := time.Now()
	var rounds []roundResult
	for r := 0; ; r++ {
		rs := time.Now()
		rr, err := runRound(w, cfg, r, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s round %d: %v\n", w.name, r, err)
			return 1
		}
		if len(rounds) > 0 {
			rounds[len(rounds)-1].spans = nil
		}
		rounds = append(rounds, rr)
		fmt.Fprintln(stdout, rr.summary(r, time.Since(rs)))
		// Start another round only if it fits in the budget, judged by
		// the mean round so far.
		elapsed := time.Since(start)
		if elapsed+elapsed/time.Duration(len(rounds)) > budget {
			break
		}
	}

	rep := report{Correct: true, Metrics: map[string]metricValue{}}
	stale := 0
	for _, rr := range rounds {
		rep.Attempted += rr.attempted
		rep.Failed += rr.failed
		rep.Correct = rep.Correct && rr.correct
		stale += rr.stale
	}
	fmt.Fprintf(stdout, "# total rounds=%d attempted=%d failed=%d stale_reads=%d correct=%t\n", len(rounds), rep.Attempted, rep.Failed, stale, rep.Correct)
	defs := endToEnd
	if cfg.traced {
		defs = perLayer
	}
	// Every metric is the median of the rounds' values, latency
	// percentiles too: a burst of host noise that slows a few rounds
	// does not move it.
	for _, d := range defs {
		vals := make([]float64, 0, len(rounds))
		for _, rr := range rounds {
			v, ok := rr.metrics[d.name]
			if !ok {
				fmt.Fprintf(stderr, "perfbench: metric %s missing from a round\n", d.name)
				return 1
			}
			vals = append(vals, v)
		}
		rep.Metrics[d.name] = metricValue{Value: median(vals), Unit: d.unit}
	}
	if cfg.traced {
		if err := writeSpans(rounds[len(rounds)-1].spans, w.name); err != nil {
			fmt.Fprintf(stderr, "perfbench: write spans: %v\n", err)
			return 1
		}
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	return 0
}

// runRecord names the host, CPU count, GOMAXPROCS, Go version, commit and
// seeds that produced a run's figures.
func runRecord(workload string, cfg runConfig) string {
	host, err := os.Hostname()
	if err != nil {
		host = "unknown"
	}
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					commit += "+modified"
				}
			}
		}
	}
	return fmt.Sprintf("# perfbench workload=%s seed=%d trace=%t host=%s nproc=%d gomaxprocs=%d go=%s commit=%s clients=%d interactions_per_client=%d",
		workload, cfg.seed, cfg.traced, host, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, cfg.clients, cfg.perClient)
}
