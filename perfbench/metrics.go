package main

// units names every metric the benchmark reports with its unit. The
// end-to-end metrics are reported by untraced runs (--trace 0), the
// per-layer metrics by traced runs (--trace 1); BENCHMARK.json lists the
// same names and units, which the smoke test checks.
var units = map[string]string{
	// End to end, on every workload.
	"setup_s":     "s",
	"verdict_s":   "s",
	"alloc_mb":    "MB",
	"peak_rss_mb": "MB",
	"job_p50_ms":  "ms",
	"job_p90_ms":  "ms",
	"jobs_per_s":  "1/s",

	// Per layer, on every workload.
	"wrong_verdicts":              "count",
	"failed_frac":                 "ratio",
	"cnf.parse_ms":                "ms",
	"cnf.parse_mb_per_s":          "MB/s",
	"proof.parse_ms":              "ms",
	"drat.parse_ms":               "ms",
	"core.verify_ms":              "ms",
	"core.build_db_ms":            "ms",
	"core.check_loop_ms":          "ms",
	"core.core_extract_ms":        "ms",
	"core.artifacts_ms":           "ms",
	"core.tested":                 "count",
	"core.skipped":                "count",
	"core.tested_frac":            "ratio",
	"bcp.propagations":            "count",
	"bcp.watcher_visits":          "count",
	"bcp.visits_per_check":        "count",
	"bcp.refutations":             "count",
	"bcp.conflicts":               "count",
	"bcp.props_per_s":             "1/s",
	"drat.verify_ms":              "ms",
	"drat.structural_scan_ms":     "ms",
	"drat.forward_replay_ms":      "ms",
	"drat.backward_pass_ms":       "ms",
	"drat.checked":                "count",
	"drat.reactivations":          "count",
	"lrat.emit_bytes":             "bytes",
	"lrat.check_ms":               "ms",
	"lrat.check_dag_ms":           "ms",
	"lrat.hints_scanned":          "count",
	"sched.tasks":                 "count",
	"sched.steals":                "count",
	"sched.dag_speedup":           "ratio",
	"service.submit_p50_ms":       "ms",
	"service.submit_p90_ms":       "ms",
	"service.verdict_wait_p50_ms": "ms",
	"service.lrat_get_ms":         "ms",
	"service.recheck_p50_ms":      "ms",
	"service.recheck_p90_ms":      "ms",
	"service.jobs_completed":      "count",
	"service.rejected_queue_full": "count",
	"journal.appends":             "count",
	"journal.bytes":               "bytes",
	"store.create_ms":             "ms",
	"store.result_ms":             "ms",
	"gc.cycles":                   "count",
	"gc.pause_ms":                 "ms",
	"loadgen.late_p90_ms":         "ms",
	"trace.overhead_ms":           "ms",
	"layers.sum_frac":             "ratio",
}

// fingerprintCounters are the daemon counters a traced dpvd round adds to
// its work fingerprint: exact counts that repeat for a fixed schedule.
var fingerprintCounters = []string{
	"bcp.propagations", "bcp.watcher_visits", "verify.checked",
	"lrat.hints_scanned", "journal.appends", "service.jobs_completed",
}

// layerSumTolerance bounds how far the outside-timed layers on the
// blocking path (parse + verify + artifacts) may fall short of the traced
// pass time before the run fails its self-check.
const layerSumTolerance = 0.05
