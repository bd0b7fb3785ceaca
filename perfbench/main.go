// Command perfbench is the repository's end-to-end benchmark. It drives the
// verification pipeline the way dpv, dratcheck -backward and dpvd drive it,
// on inputs generated from a seed, checks every verdict against an answer
// known by construction, and prints one JSON result line:
//
//	bash perfbench/run.sh --workload deep-proofs --seed 1 --seconds 12 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// instrumentation off. With --trace 1 a separate traced run passes an
// obs.Registry into every layer and reports the per-layer split. METRICS.md
// lists every metric with its unit, its layer and what it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
)

// workloads names the benchmark's workloads; workloadSpecs lists the
// inputs of each.
var workloads = map[string]bool{
	"deep-proofs":    true,
	"wide-formulas":  true,
	"drup-deletions": true,
	"dpvd-jobs":      true,
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	rate     float64 // dpvd-jobs offered open-loop rate, jobs per second
	tiny     bool    // smoke-test sizes
	workdir  string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var traceFlag int
	fs.StringVar(&cfg.workload, "workload", "", "workload: deep-proofs | wide-formulas | drup-deletions | dpvd-jobs")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed for the generated inputs and the dpvd-jobs schedule")
	fs.Float64Var(&cfg.seconds, "seconds", 12, "how long the timed phase runs")
	fs.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	fs.Float64Var(&cfg.rate, "rate", 6, "dpvd open-loop offered rate in jobs per second")
	fs.BoolVar(&cfg.tiny, "tiny", false, "use smoke-test instance sizes")
	fs.StringVar(&cfg.workdir, "workdir", ".bench_build/perfbench", "directory for generated inputs, artifacts and fingerprints")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !workloads[cfg.workload] {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", cfg.workload)
		return 2
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	cfg.trace = traceFlag == 1
	if cfg.seconds <= 0 || cfg.rate <= 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds and --rate must be positive")
		return 2
	}

	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	scratch, err := os.MkdirTemp(cfg.workdir, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(scratch)

	rep, err := runWorkload(cfg, scratch)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := checkFingerprint(cfg, rep); err != nil {
		rep.fail("%v", err)
	}
	for _, p := range rep.problems {
		fmt.Fprintln(stderr, "perfbench: check failed:", p)
	}

	// The line before the result documents what was measured: the host,
	// the code, the seed, every input's digest and the work fingerprint.
	prov := provenance(cfg, rep)
	if b, err := json.Marshal(map[string]any{"provenance": prov, "fingerprint": rep.fp}); err == nil {
		fmt.Fprintln(stdout, string(b))
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(rep.problems) == 0, rep.attempted, rep.failed, rep.metrics}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !out.Correct {
		return 1
	}
	return 0
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one run's outcome.
type report struct {
	metrics   map[string]metric
	attempted int64
	failed    int64
	wrong     int64    // verdicts that differ from the known answer
	problems  []string // failed checks; any one makes the run incorrect
	inputs    map[string]string
	fp        *fingerprint
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, inputs: map[string]string{}, fp: newFingerprint()}
}

func (r *report) set(name string, v float64) {
	unit, ok := units[name]
	if !ok {
		panic("perfbench: metric without a unit: " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// countOp records one attempted operation and whether it failed
// unexpectedly (an error, a 5xx or 429 answer, a timeout). Expected
// refusals are not failures.
func (r *report) countOp(failed bool, format string, args ...any) {
	r.attempted++
	if failed {
		r.failed++
		r.fail(format, args...)
	}
}

// verdict compares an observed verdict with the known answer.
func (r *report) verdict(name, want, got string) {
	if want != got {
		r.wrong++
		r.fail("%s: verdict %q, want %q", name, got, want)
	}
}

// finishCounts closes the run's operation accounting; a traced run also
// reports it as the wrong_verdicts and failed_frac metrics.
func (r *report) finishCounts(traced bool) {
	if r.attempted == 0 {
		r.attempted = 1
		r.fail("no operation was attempted")
	}
	if traced {
		r.set("wrong_verdicts", float64(r.wrong))
		r.set("failed_frac", float64(r.failed)/float64(r.attempted))
	}
}
