// Command benchdiff is the perf-regression gate: it compares a fresh BCP
// benchmark report (bcpbench output) against a committed baseline and fails
// when a gated metric degraded beyond tolerance.
//
// Usage:
//
//	benchdiff [-tol 0.15] baseline.json fresh.json
//	benchdiff -lrat [-tol 0.15] BENCH_lrat.json fresh.json
//	benchdiff -par [-tol 0.15] BENCH_par.json fresh.json
//
// Deterministic per-check work (watcher visits/check, occurrence
// touches/check) is gated per instance and engine at -tol; wall-clock
// throughput (props/sec) is gated only on the suite aggregate, at twice
// -tol, and only when the aggregate clears a wall-time noise floor — so
// timer noise cannot fail the gate. Only instances present in both reports
// are compared, which lets a quick smoke run be gated against the
// full-suite baseline; sharing no instances at all is an error, not a pass.
//
// With -lrat the inputs are hinted-proof benchmark reports (bcpbench -lrat
// output): hints scanned and addition steps are gated per instance, hinted
// check throughput (hints/sec) on the suite aggregate under the same
// noise-floor rules.
//
// With -par the inputs are parallel-schedule benchmark reports (parbench
// output): the hint DAG's shape (tasks, edges, costs, depth) is gated per
// instance, scheduled replay throughput on the suite aggregate under the
// same noise-floor rules.
//
// Exit status: 0 gate passed, 1 regressions found, 2 usage or input errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
)

func main() {
	os.Exit(run())
}

func run() int {
	tol := flag.Float64("tol", 0.15, "fractional regression tolerance (0.15 = 15%)")
	lratMode := flag.Bool("lrat", false, "diff hinted-proof benchmark reports (bcpbench -lrat output)")
	parMode := flag.Bool("par", false, "diff parallel-schedule benchmark reports (parbench output)")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-lrat|-par] [-tol 0.15] baseline.json fresh.json")
		return 2
	}
	if *tol <= 0 {
		fmt.Fprintln(os.Stderr, "benchdiff: -tol must be positive")
		return 2
	}
	if *lratMode && *parMode {
		fmt.Fprintln(os.Stderr, "benchdiff: -lrat and -par are mutually exclusive")
		return 2
	}
	var regs []bench.Regression
	var compared int
	if *parMode {
		base, err := readParReport(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			return 2
		}
		fresh, err := readParReport(flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			return 2
		}
		regs, compared = bench.DiffPar(base, fresh, *tol)
	} else if *lratMode {
		base, err := readLRATReport(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			return 2
		}
		fresh, err := readLRATReport(flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			return 2
		}
		regs, compared = bench.DiffLRAT(base, fresh, *tol)
	} else {
		base, err := readReport(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			return 2
		}
		fresh, err := readReport(flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			return 2
		}
		regs, compared = bench.DiffBCP(base, fresh, *tol)
	}
	if compared == 0 {
		fmt.Fprintln(os.Stderr, "benchdiff: reports share no instances; gate is vacuous")
		return 2
	}
	if len(regs) > 0 {
		fmt.Printf("FAIL: %d of %d gated metrics regressed beyond %.0f%%\n",
			len(regs), compared, 100**tol)
		for _, r := range regs {
			fmt.Println("  ", r.String())
		}
		return 1
	}
	fmt.Printf("ok: %d gated metrics within %.0f%% of baseline\n", compared, 100**tol)
	return 0
}

func readReport(path string) (*bench.BCPReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep := &bench.BCPReport{}
	if err := json.Unmarshal(data, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(rep.Instances) == 0 {
		return nil, fmt.Errorf("%s: report holds no instances", path)
	}
	return rep, nil
}

func readParReport(path string) (*bench.ParReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep := &bench.ParReport{}
	if err := json.Unmarshal(data, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(rep.Instances) == 0 {
		return nil, fmt.Errorf("%s: report holds no instances", path)
	}
	return rep, nil
}

func readLRATReport(path string) (*bench.LRATReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep := &bench.LRATReport{}
	if err := json.Unmarshal(data, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(rep.Instances) == 0 {
		return nil, fmt.Errorf("%s: report holds no instances", path)
	}
	return rep, nil
}
