package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/lrat"
	"repro/internal/obs"
	"repro/internal/proof"
	"repro/internal/sched"
	"repro/internal/service"
)

// env is a workload after set-up.
type env struct {
	cfg    config
	dir    string
	inputs []*input
	drup   bool   // the checker path is dratcheck -backward, not dpv
	outDir string // artifacts of the checker path

	daemon *daemonEnv // dpvd-jobs only
	sched  *scheduler // dpvd-jobs schedule
}

// nextRound draws the next dpvd-jobs round.
func (e *env) nextRound() (open, burst []arrival) {
	n := len(e.inputs)
	return e.sched.round(openBlocks*n, burstBlocks*n)
}

func (e *env) close() {
	if e.daemon != nil {
		e.daemon.close()
	}
}

// path runs the workload's checker path, or with other set the other one
// (a traced run times both checkers on every workload's inputs).
func (e *env) path(other bool) checkerPath {
	if e.drup != other {
		return runDRAT
	}
	return runDPV
}

// setup generates, solves and encodes the inputs into dir and, for
// dpvd-jobs, starts the daemon. It is what setup_s times.
func setup(cfg config, dir string, reg *obs.Registry) (*env, map[string]string, error) {
	specs := workloadSpecs(cfg.workload, cfg.seed, cfg.tiny)
	inputs, digests, err := buildInputs(specs, cfg.seed, filepath.Join(dir, "inputs"))
	if err != nil {
		return nil, nil, err
	}
	e := &env{cfg: cfg, dir: dir, inputs: inputs, drup: cfg.workload == "drup-deletions", outDir: filepath.Join(dir, "out")}
	for _, d := range []string{e.outDir, filepath.Join(e.outDir, "other")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, nil, err
		}
	}
	if cfg.workload == "dpvd-jobs" {
		e.sched = newScheduler(inputs, cfg.seed, cfg.rate)
		if e.daemon, err = startDaemon(filepath.Join(dir, "store"), burstBlocks*len(inputs), reg); err != nil {
			return nil, nil, err
		}
	}
	return e, digests, nil
}

// setupRepeats is how often an untraced run sets up; setup_s is the median.
const setupRepeats = 3

// runWorkload sets the workload up and measures it.
func runWorkload(cfg config, scratch string) (*report, error) {
	rep := newReport()
	setups := setupRepeats
	var reg *obs.Registry
	if cfg.trace {
		setups = 1
		reg = obs.New()
	}
	var e *env
	var times []float64
	for i := 0; i < setups; i++ {
		if e != nil {
			e.close()
		}
		t := time.Now()
		var err error
		var digests map[string]string
		if e, digests, err = setup(cfg, filepath.Join(scratch, fmt.Sprint("setup", i)), reg); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t).Seconds())
		rep.inputs = digests
	}
	defer e.close()

	var err error
	switch {
	case cfg.trace:
		err = e.traced(rep)
	case e.daemon != nil:
		err = e.endToEndDaemon(rep)
		rep.set("setup_s", median(times))
	default:
		err = e.endToEndBatch(rep)
		rep.set("setup_s", median(times))
	}
	if err != nil {
		return nil, err
	}
	rep.finishCounts(cfg.trace)
	return rep, nil
}

// repeat calls iter until the run's time is up: at least once, and again
// only while one more iteration, as long as the last, still fits.
func (e *env) repeat(iter func(i int) error) error {
	end := time.Now().Add(time.Duration(e.cfg.seconds * float64(time.Second)))
	for i := 0; ; i++ {
		t := time.Now()
		if err := iter(i); err != nil {
			return err
		}
		if time.Now().Add(time.Since(t)).After(end) {
			return nil
		}
	}
}

// endToEndBatch repeats passes over the inputs through the checker path,
// untraced, until the run's time is up. Each pass is followed, outside its
// timing, by the /recheck-style re-validation of every emitted LRAT proof.
func (e *env) endToEndBatch(rep *report) error {
	var passes, allocs, rss []float64
	lat := byKey{}
	err := e.repeat(func(pass int) error {
		runtime.GC()
		sampler := startRSS()
		mark := markMem()
		t := time.Now()
		outs := make([]outcome, len(e.inputs))
		for i, in := range e.inputs {
			outs[i] = e.path(false)(in, e.outDir, nil)
		}
		passes = append(passes, time.Since(t).Seconds())
		allocs = append(allocs, float64(mark.since().allocBytes)/(1<<20))
		rss = append(rss, sampler.peakMB())

		fp := newFingerprint()
		for i, o := range outs {
			lat.add(e.inputs[i].Name, ms(o.total))
			e.account(rep, e.inputs[i], o, fp, false)
			if o.verdict != wantVerified || o.err != nil {
				continue
			}
			hints, err := recheck(o)
			rep.countOp(err != nil, "%s: recheck: %v", e.inputs[i].Name, err)
			fp.add("lrat.hints_scanned", hints)
		}
		e.compare(rep, pass, fp)
		return nil
	})
	rep.set("peak_rss_mb", median(rss))
	rep.set("verdict_s", median(passes))
	rep.set("alloc_mb", median(allocs))
	rep.set("job_p50_ms", median(lat.medians()))
	rep.set("job_p90_ms", percentile(lat.medians(), 90))
	rep.set("jobs_per_s", float64(len(e.inputs))/median(passes))
	return err
}

// endToEndDaemon plays seeded rounds against the daemon until the run's
// time is up.
func (e *env) endToEndDaemon(rep *report) error {
	var lat, spans, allocs, rss []float64
	var nBurst int
	err := e.repeat(func(round int) error {
		runtime.GC()
		sampler := startRSS()
		mark := markMem()
		open, burst := e.nextRound()
		rr, err := e.daemon.runRound(open, burst)
		if err != nil {
			sampler.peakMB()
			return err
		}
		allocs = append(allocs, float64(mark.since().allocBytes)/(1<<20))
		rss = append(rss, sampler.peakMB())
		for _, rec := range rr.recs {
			if rec.err != nil {
				continue
			}
			if !rec.burst {
				lat = append(lat, ms(rec.done.Sub(rec.due)))
			}
		}
		spans = append(spans, rr.burstEnd.Sub(rr.burstStart).Seconds())
		nBurst = len(burst)
		e.compare(rep, round, rr.account(rep))
		return nil
	})
	rep.set("peak_rss_mb", median(rss))
	rep.set("verdict_s", median(spans))
	rep.set("alloc_mb", median(allocs))
	rep.set("job_p50_ms", median(lat))
	rep.set("job_p90_ms", percentile(lat, 90))
	rep.set("jobs_per_s", float64(nBurst)/median(spans))
	return err
}

// account checks one outcome of the checker path (or with other set, of
// the other checker) against its known answer, and adds its exact work
// counts and artifact digests to fp.
func (e *env) account(rep *report, in *input, o outcome, fp *fingerprint, other bool) {
	rep.countOp(o.err != nil, "%s: %v", in.Name, o.err)
	if o.err != nil {
		return
	}
	want, prefix, dir := in.Want, "", e.outDir
	if e.drup != other {
		want = in.WantDRAT
	}
	if other {
		prefix, dir = "other.", filepath.Join(e.outDir, "other")
	}
	rep.verdict(in.Name, want, o.verdict)
	if r := o.core; r != nil {
		fp.add(prefix+"bcp.propagations", r.EngineStats.Propagations)
		fp.add(prefix+"bcp.watcher_visits", r.EngineStats.WatcherVisits)
		fp.add(prefix+"core.tested", int64(r.Tested))
	}
	if r := o.dratR; r != nil {
		fp.add(prefix+"drat.propagations", r.Propagations)
	}
	if o.verdict != wantVerified {
		return
	}
	for _, ext := range []string{".core.cnf", ".trim.trace", ".trim.drat", ".lrat"} {
		path := filepath.Join(dir, in.Name+ext)
		if d, err := fileDigest(path); err == nil {
			fp.Digests[prefix+in.Name+ext] = d
		}
	}
}

// compare makes the first pass's fingerprint the run's, and fails the run
// when a later pass did different work.
func (e *env) compare(rep *report, pass int, fp *fingerprint) {
	if pass == 0 {
		rep.fp = fp
		return
	}
	if !rep.fp.equal(fp) {
		rep.fail("pass %d: work fingerprint differs from pass 0 (%s)", pass, rep.fp.diff(fp))
	}
}

// recheck re-validates an emitted LRAT proof the way POST /recheck does
// (parse under limits, replay over the hint DAG at GOMAXPROCS) and returns
// the hints it scanned.
func recheck(o outcome) (int64, error) {
	b, err := os.ReadFile(o.lratFn)
	if err != nil {
		return 0, err
	}
	res, err := lrat.Validate(o.f, b, lrat.Limits{}, lrat.Options{Workers: runtime.GOMAXPROCS(0), Strategy: sched.StrategyDAG})
	if err != nil {
		return 0, err
	}
	if !res.OK {
		return 0, fmt.Errorf("emitted LRAT proof rejected: %s", res.Reason)
	}
	return res.HintsScanned, nil
}

// storeProbe times DiskStore.Create and SetLRAT+SetResult on a verified
// input's artifacts, as the daemon's admission and completion do.
func storeProbe(st *service.DiskStore, in *input, o outcome) (create, result time.Duration, err error) {
	tr, err := readFile(in.Trace, proof.Read)
	if err != nil {
		return 0, 0, err
	}
	lb, err := os.ReadFile(o.lratFn)
	if err != nil {
		return 0, 0, err
	}
	id, err := service.NewJobID()
	if err != nil {
		return 0, 0, err
	}
	job := &service.Job{ID: id, Tenant: "bench", NumVars: o.f.NumVars, NumClauses: o.f.NumClauses(), ProofClauses: tr.Len()}
	t := time.Now()
	if err := st.Create(job, o.f, tr); err != nil {
		return 0, 0, err
	}
	create = time.Since(t)
	t = time.Now()
	if err := st.SetLRAT(id, lb); err != nil {
		return 0, 0, err
	}
	jr := &service.JobResult{Status: service.StatusVerified, Code: service.StatusVerified.ExitCode(), Attempts: 1}
	if err := st.SetResult(id, jr); err != nil {
		return 0, 0, err
	}
	return create, time.Since(t), nil
}
