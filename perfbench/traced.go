package main

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/lrat"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/service"
)

// tracedOutcome is one checker call with the registry it reported into.
type tracedOutcome struct {
	outcome
	snap *obs.Snapshot
}

// traced is the per-layer run. Each iteration runs an untraced pass and a
// traced pass of the workload's checker path (their difference is the
// tracing overhead), a traced pass of the other checker on the same inputs,
// the sequential and DAG LRAT checkers on the emitted proofs, and the
// DiskStore calls on the same artifacts. One dpvd round at the end gives
// the service numbers. Every per-layer number is the median over
// iterations of its sum over the inputs, except where METRICS.md says
// otherwise.
func (e *env) traced(rep *report) error {
	samples := map[string][]float64{}
	add := func(name string, v float64) { samples[name] = append(samples[name], v) }
	var createMS, resultMS []float64

	err := e.repeat(func(iter int) error {
		// The untraced and the traced pass alternate which runs first, so
		// warm-up and heap state do not bias the overhead estimate.
		var untraced, pass time.Duration
		var prim []tracedOutcome
		var gc memDelta
		for k := 0; k < 2; k++ {
			runtime.GC()
			if (k+iter)%2 == 1 {
				prim, pass, gc = e.tracedPass(false)
				continue
			}
			t := time.Now()
			for _, in := range e.inputs {
				e.account(rep, in, e.path(false)(in, e.outDir, nil), newFingerprint(), false)
			}
			untraced = time.Since(t)
		}
		other, _, _ := e.tracedPass(true)

		fp := newFingerprint()
		var blocking time.Duration
		var cnfBytes int64
		var cnfParse time.Duration
		for i, in := range e.inputs {
			o := prim[i]
			e.account(rep, in, o.outcome, fp, false)
			e.account(rep, in, other[i].outcome, fp, true)
			blocking += o.parseCNF + o.parseProof + o.verify + o.artifacts
			cnfParse += o.parseCNF
			cnfBytes += in.Size
		}
		corePass, dratPass := prim, other
		if e.drup {
			corePass, dratPass = other, prim
		}
		coreLayers(corePass, add)
		dratLayers(dratPass, add, fp)

		add("cnf.parse_ms", ms(cnfParse))
		add("cnf.parse_mb_per_s", float64(cnfBytes)/(1<<20)/cnfParse.Seconds())
		add("gc.cycles", float64(gc.gcCycles))
		add("gc.pause_ms", ms(gc.pause))
		add("trace.overhead_ms", ms(pass-untraced))
		frac := blocking.Seconds() / pass.Seconds()
		add("layers.sum_frac", frac)
		if frac < 1-layerSumTolerance || frac > 1+layerSumTolerance {
			rep.fail("iteration %d: parse+verify+artifacts = %.3f of the traced pass, outside 1±%.2f", iter, frac, layerSumTolerance)
		}

		if err := e.lratLayers(rep, prim, add, fp); err != nil {
			return err
		}
		c, r, err := e.storeLayers(prim, iter)
		if err != nil {
			return err
		}
		createMS, resultMS = append(createMS, c...), append(resultMS, r...)
		e.compare(rep, iter, fp)
		return nil
	})
	if err != nil {
		return err
	}
	for name, xs := range samples {
		rep.set(name, median(xs))
	}
	rep.set("store.create_ms", median(createMS))
	rep.set("store.result_ms", median(resultMS))
	return e.serviceLayers(rep)
}

// tracedPass runs one checker path over the inputs, each call with a
// registry of its own so its span tree holds that call alone, and returns
// the pass's wall time and garbage-collector work.
func (e *env) tracedPass(other bool) ([]tracedOutcome, time.Duration, memDelta) {
	dir := e.outDir
	if other {
		dir = filepath.Join(e.outDir, "other")
	}
	regs := make([]*obs.Registry, len(e.inputs))
	for i := range regs {
		regs[i] = obs.New()
	}
	out := make([]tracedOutcome, len(e.inputs))
	mark := markMem()
	t := time.Now()
	for i, in := range e.inputs {
		out[i].outcome = e.path(other)(in, dir, regs[i])
	}
	pass := time.Since(t)
	gc := mark.since()
	for i := range out {
		out[i].snap = regs[i].Snapshot()
	}
	return out, pass, gc
}

// spanMS sums the durations of the spans at path below the root.
func spanMS(s *obs.SpanSnapshot, path ...string) float64 {
	if s == nil {
		return 0
	}
	if len(path) == 0 {
		return s.DurationMS
	}
	var sum float64
	for _, c := range s.Children {
		if c.Name == path[0] {
			sum += spanMS(c, path[1:]...)
		}
	}
	return sum
}

// coreLayers sums the dpv path's layer numbers: outside-timed calls, the
// core.Verify span tree, and the engine's exact work counters.
func coreLayers(pass []tracedOutcome, add func(string, float64)) {
	var parse, verify, artifacts time.Duration
	var build, loop, extract float64
	var tested, skipped, clauses, props, visits, refs, confl int64
	for _, o := range pass {
		parse += o.parseProof
		verify += o.verify
		artifacts += o.artifacts
		build += spanMS(o.snap.Spans, "verify", "build-db")
		loop += spanMS(o.snap.Spans, "verify", "check-loop")
		extract += spanMS(o.snap.Spans, "verify", "core-extract")
		if r := o.core; r != nil {
			tested += int64(r.Tested)
			skipped += int64(r.Skipped)
			clauses += int64(r.ProofClauses)
			props += r.EngineStats.Propagations
			visits += r.EngineStats.WatcherVisits
			refs += r.EngineStats.Refutations
			confl += r.EngineStats.Conflicts
		}
	}
	add("proof.parse_ms", ms(parse))
	add("core.verify_ms", ms(verify))
	add("core.build_db_ms", build)
	add("core.check_loop_ms", loop)
	add("core.core_extract_ms", extract)
	add("core.artifacts_ms", ms(artifacts))
	add("core.tested", float64(tested))
	add("core.skipped", float64(skipped))
	add("core.tested_frac", float64(tested)/float64(clauses))
	add("bcp.propagations", float64(props))
	add("bcp.watcher_visits", float64(visits))
	add("bcp.visits_per_check", float64(visits)/float64(refs))
	add("bcp.refutations", float64(refs))
	add("bcp.conflicts", float64(confl))
	add("bcp.props_per_s", float64(props)/(loop/1000))
}

// dratLayers sums the dratcheck -backward path's layer numbers.
func dratLayers(pass []tracedOutcome, add func(string, float64), fp *fingerprint) {
	var parse, verify time.Duration
	var scan, replay, backward float64
	var checked, react int64
	for _, o := range pass {
		parse += o.parseProof
		verify += o.verify
		scan += spanMS(o.snap.Spans, "drat-backward", "structural-scan")
		replay += spanMS(o.snap.Spans, "drat-backward", "forward-replay")
		backward += spanMS(o.snap.Spans, "drat-backward", "backward-pass")
		checked += o.snap.Counters["drat.checked"]
		react += o.snap.Counters["drat.reactivations"]
	}
	add("drat.parse_ms", ms(parse))
	add("drat.verify_ms", ms(verify))
	add("drat.structural_scan_ms", scan)
	add("drat.forward_replay_ms", replay)
	add("drat.backward_pass_ms", backward)
	add("drat.checked", float64(checked))
	add("drat.reactivations", float64(react))
	fp.add("drat.checked", checked)
	fp.add("drat.reactivations", react)
}

// lratLayers runs the sequential checker (the lratcheck path) and the DAG
// strategy at GOMAXPROCS workers on every LRAT proof the checker path
// emitted.
func (e *env) lratLayers(rep *report, pass []tracedOutcome, add func(string, float64), fp *fingerprint) error {
	var seq, dag time.Duration
	var size, hints, tasks, steals int64
	for i, o := range pass {
		if o.verdict != wantVerified || o.err != nil {
			continue
		}
		b, err := os.ReadFile(o.lratFn)
		if err != nil {
			return err
		}
		size += int64(len(b))
		p, err := lrat.Read(bytes.NewReader(b))
		if err != nil {
			return fmt.Errorf("%s: emitted LRAT: %w", e.inputs[i].Name, err)
		}
		t := time.Now()
		res, err := lrat.Check(o.f, p, lrat.Options{Obs: obs.New()}) // sequential, as lratcheck
		seq += time.Since(t)
		rep.countOp(err != nil || !res.OK, "%s: lrat check: %v", e.inputs[i].Name, err)
		hints += res.HintsScanned

		reg := obs.New()
		t = time.Now()
		res, err = lrat.Check(o.f, p, lrat.Options{Workers: runtime.GOMAXPROCS(0), Strategy: sched.StrategyDAG, Obs: reg})
		dag += time.Since(t)
		rep.countOp(err != nil || !res.OK, "%s: lrat DAG check: %v", e.inputs[i].Name, err)
		snap := reg.Snapshot()
		tasks += snap.Counters["sched.tasks"]
		steals += snap.Counters["sched.steals"]
	}
	add("lrat.emit_bytes", float64(size))
	add("lrat.check_ms", ms(seq))
	add("lrat.check_dag_ms", ms(dag))
	add("lrat.hints_scanned", float64(hints))
	add("sched.tasks", float64(tasks))
	add("sched.steals", float64(steals))
	add("sched.dag_speedup", seq.Seconds()/dag.Seconds())
	fp.add("lrat.hints_scanned", hints)
	fp.add("sched.tasks", tasks)
	return nil
}

// storeLayers times the DiskStore calls on each verified input, into a
// store of the iteration's own.
func (e *env) storeLayers(pass []tracedOutcome, iter int) (create, result []float64, err error) {
	st, err := service.NewDiskStore(filepath.Join(e.dir, fmt.Sprint("store-probe", iter)))
	if err != nil {
		return nil, nil, err
	}
	for i, o := range pass {
		if o.verdict != wantVerified || o.err != nil {
			continue
		}
		c, r, err := storeProbe(st, e.inputs[i], o.outcome)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: store: %w", e.inputs[i].Name, err)
		}
		create, result = append(create, ms(c)), append(result, ms(r))
	}
	return create, result, nil
}

// serviceLayers runs one dpvd round with the daemon's registry attached:
// the workload's own schedule on dpvd-jobs, and elsewhere every input
// uploaded once, in a seeded order at the offered rate, with every
// verified job read back.
func (e *env) serviceLayers(rep *report) error {
	d := e.daemon
	var open, burst []arrival
	if d != nil {
		open, burst = e.nextRound()
	} else {
		open, _ = newScheduler(e.inputs, e.cfg.seed, e.cfg.rate).round(len(e.inputs), 0)
		for i := range open {
			open[i].read = true
		}
		var err error
		if d, err = startDaemon(filepath.Join(e.dir, "service-probe"), len(open), obs.New()); err != nil {
			return err
		}
		defer d.close()
	}
	rr, err := d.runRound(open, burst)
	if err != nil {
		return err
	}
	fp := rr.account(rep)
	for k, v := range fp.Counters {
		rep.fp.Counters["dpvd."+k] = v
	}
	for k, v := range fp.Digests {
		rep.fp.Digests["dpvd."+k] = v
	}

	var submit, wait, get, rechecks, late []float64
	for _, rec := range rr.recs {
		if rec.err != nil {
			continue
		}
		submit = append(submit, ms(rec.posted.Sub(rec.sent)))
		if !rec.burst {
			late = append(late, ms(rec.sent.Sub(rec.due)))
		}
		if rec.code == http.StatusAccepted {
			wait = append(wait, ms(rec.done.Sub(rec.posted)))
		}
		if rec.lratTime > 0 {
			get = append(get, ms(rec.lratTime))
			rechecks = append(rechecks, ms(rec.recheck))
		}
	}
	rep.set("service.submit_p50_ms", percentile(submit, 50))
	rep.set("service.submit_p90_ms", percentile(submit, 90))
	rep.set("service.verdict_wait_p50_ms", percentile(wait, 50))
	rep.set("service.lrat_get_ms", median(get))
	rep.set("service.recheck_p50_ms", percentile(rechecks, 50))
	rep.set("service.recheck_p90_ms", percentile(rechecks, 90))
	rep.set("loadgen.late_p90_ms", percentile(late, 90))
	for _, name := range []string{"service.jobs_completed", "service.rejected_queue_full", "journal.appends", "journal.bytes"} {
		rep.set(name, float64(rr.deltas[name]))
	}
	return nil
}
