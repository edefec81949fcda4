// Command perfbench is the repository benchmark. It generates seeded
// corpora, drives one workload through the public entry points of one
// user-facing mode, checks every answer against the sequential engine,
// and prints its metrics as one JSON object on the last line of stdout.
//
// Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload batch --seed 1 --seconds 20 --trace 0
//
// Workloads (BENCHMARK.json says why each exists):
//
//	batch         1 caller, in-process queries.Spec.Symple
//	serve-warm    2 tenants against serve.Server, summary cache filled first
//	serve-append  2 tenants, each appending one fresh segment before each query
//	cluster-w2w   1 caller, 2 spawned sympled workers, worker-to-worker shuffle
//
// Every workload is a closed loop running whole passes of the 12 paper
// queries in a seeded order. --trace 0 reports the end-to-end metrics:
//
//	jobs_per_s   callers × 12 jobs ÷ the median pass time
//	job_p50_ms   Harrell–Davis median of call-to-result latency
//	job_p90_ms   Harrell–Davis 90th percentile of the same
//	ok_frac      jobs completed ÷ jobs attempted
//	setup_s      generation, hosting and warm-up; median of 3 set-ups
//	rss_peak_mb  peak resident set of this process plus live workers
//
// --trace 1 alternates untraced and traced passes, reports the per-layer
// metrics (counters from the untraced passes, span self times from the
// traced ones), and writes the traced spans as JSONL.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: batch, serve-warm, serve-append or cluster-w2w")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: derives the corpora, the fresh segments and the query order")
	flag.Float64Var(&o.seconds, "seconds", 20, "measured seconds per run (whole passes; the last pass may run over)")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.StringVar(&o.outDir, "out", ".bench_build/perfbench", "directory for the span dump and the full result")
	flag.StringVar(&o.workerBin, "worker-bin", "sympled", "worker binary for cluster-w2w (path, sibling of this binary, or on PATH)")
	flag.Parse()
	o.trace = trace == 1
	if workloadByName(o.workload) == nil || (trace != 0 && trace != 1) || o.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (batch|serve-warm|serve-append|cluster-w2w), --seconds > 0 and --trace 0|1\n")
		os.Exit(2)
	}

	rep, err := run(o, defaultScale, hooks{})
	if rep == nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	prov, _ := json.Marshal(map[string]any{"provenance": rep.prov})
	fmt.Println(string(prov))
	for _, w := range rep.prov.Warnings {
		fmt.Fprintf(os.Stderr, "perfbench: warning: %s\n", w)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	}
	line, _ := json.Marshal(rep.res)
	fmt.Println(string(line))
	if err != nil || !rep.res.Correct {
		os.Exit(1)
	}
}

// options are one run's command-line settings.
type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	outDir    string
	workerBin string
}

// defaultScale sizes the corpora: large enough that a seed's corpus
// quirks move the job mix's median little, small enough that every
// workload completes over 100 jobs in a 20-second run on a 2-core host.
var defaultScale = scale{Records: 40000, Segments: 8}

// outPath names a per-run output file.
func outPath(o options, kind, ext string) string {
	return fmt.Sprintf("%s/%s-%s-seed%d%s", strings.TrimRight(o.outDir, "/"), kind, o.workload, o.seed, ext)
}
