// Command parbench measures the fixed-chunk parallel split against the
// sequential check-marked and check-all runs on the same host, on trace
// shapes built to punish chunking: expensive redundant steps clustered
// where a contiguous split lands them on one worker. It also times the
// work-stealing scheduler replaying the recorded hint DAG (the schedule
// behind lratcheck -sched dag). It writes a BENCH_par.json report (see
// internal/bench.ParReport) and enforces the acceptance ceiling — scheduled
// wall time within 2x of the critical-path lower bound — whenever the walls
// clear the noise floor.
//
// Usage:
//
//	parbench [-quick] [-par 8] [-iters 3] [-o BENCH_par.json]
//
// -quick keeps only the headline imbalanced instance (same name and
// parameters as the full suite, so the output still diffs against a
// committed full-suite baseline via benchdiff -par).
//
// Exit status: 0 success, 1 the acceptance ceiling was violated, 2 usage or
// measurement errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/atomicio"
	"repro/internal/bench"
)

func main() {
	os.Exit(run())
}

func run() int {
	quick := flag.Bool("quick", false, "headline instance only, for smoke gating")
	par := flag.Int("par", 8, "worker count for the chunked split and the scheduler")
	iters := flag.Int("iters", 3, "repetitions per measurement (best is kept)")
	out := flag.String("o", "", "write the JSON report to this file")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: parbench [-quick] [-par 8] [-iters 3] [-o BENCH_par.json]")
		return 2
	}

	rep, err := bench.ParBench(bench.ParInstances(*quick), *par, *iters)
	if err != nil {
		fmt.Fprintln(os.Stderr, "parbench:", err)
		return 2
	}

	fmt.Printf("workers=%d cpus=%d iters=%d\n", rep.Workers, rep.EffectiveCPUs, rep.Iters)
	for _, ir := range rep.Instances {
		fmt.Printf("%-16s trace=%d marked=%d dag(depth=%d width=%d crit=%d/%d)\n",
			ir.Name, ir.TraceLen, ir.Marked,
			ir.DAGStats.Depth, ir.DAGStats.MaxWidth, ir.DAGStats.CritCost, ir.DAGStats.TotalCost)
		fmt.Printf("%-16s chunk=%.2fms seq-marked=%.2fms seq-all=%.2fms  T1=%.2fms TW=%.2fms steals=%d crit-ratio=%.2fx\n",
			"", ir.ChunkMillis, ir.SeqMarkedMillis, ir.SeqAllMillis,
			ir.T1Millis, ir.TWMillis, ir.Steals, ir.CritRatio)
	}
	fmt.Printf("suite: chunk=%.2fms seq-marked=%.2fms seq-all=%.2fms\n",
		rep.TotalChunkMillis, rep.TotalSeqMarkedMillis, rep.TotalSeqAllMillis)

	if *out != "" {
		write := func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(rep)
		}
		if err := atomicio.WriteFile(*out, write); err != nil {
			fmt.Fprintln(os.Stderr, "parbench:", err)
			return 2
		}
	}

	if v := rep.CheckFloors(); len(v) > 0 {
		for _, s := range v {
			fmt.Fprintln(os.Stderr, "parbench: FAIL:", s)
		}
		return 1
	}
	return 0
}
