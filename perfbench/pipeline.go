package main

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/atomicio"
	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/drat"
	"repro/internal/lrat"
	"repro/internal/obs"
	"repro/internal/proof"
)

// outcome is what one input's trip through a checker path produced. Every
// duration is taken from outside the call into the layer it names.
type outcome struct {
	verdict string
	err     error // an unexpected error: neither a verdict nor bad input

	total, parseCNF, parseProof, verify, artifacts time.Duration

	f      *cnf.Formula // kept for the LRAT recheck
	core   *core.Result // set on the dpv path
	dratR  *drat.Result // set on the dratcheck path
	lratFn string       // emitted LRAT file, when verified
}

// checkerPath is one CLI's pipeline: dpv or dratcheck -backward.
type checkerPath func(in *input, outDir string, reg *obs.Registry) outcome

// runDPV follows `dpv -core C -trim T -emit-lrat L formula trace`: parse
// both files, run the check-marked backward check with hint recording, and
// write the core, the trimmed trace and the LRAT proof atomically.
func runDPV(in *input, outDir string, reg *obs.Registry) (o outcome) {
	start := time.Now()
	defer func() { o.total = time.Since(start) }()

	f, err := readFile(in.CNF, cnf.ParseDimacs)
	o.parseCNF = time.Since(start)
	if err != nil {
		return badInput(o)
	}
	o.f = f
	t := time.Now()
	tr, err := readFile(in.Trace, proof.Read)
	o.parseProof = time.Since(t)
	if err != nil {
		return badInput(o)
	}

	t = time.Now()
	hints := new(lrat.Recorder)
	res, err := core.Verify(f, tr, core.Options{Obs: reg, Hints: hints})
	o.verify = time.Since(t)
	if errors.Is(err, core.ErrBadTrace) {
		return badInput(o)
	}
	if err != nil {
		o.err = err
		return o
	}
	o.core = res
	if !res.OK {
		o.verdict = wantRejected
		return o
	}
	o.verdict = wantVerified

	t = time.Now()
	base := filepath.Join(outDir, in.Name)
	o.err = firstErr(
		func() error {
			return atomicio.WriteFile(base+".core.cnf", func(w io.Writer) error {
				return cnf.WriteDimacs(w, core.CoreFormula(f, res))
			})
		},
		func() error {
			trimmed, err := core.Trim(tr, res)
			if err != nil {
				return err
			}
			return atomicio.WriteFile(base+".trim.trace", func(w io.Writer) error { return proof.Write(w, trimmed) })
		},
		func() error { return writeLRAT(base+".lrat", hints) },
	)
	o.artifacts = time.Since(t)
	o.lratFn = base + ".lrat"
	return o
}

// runDRAT follows `dratcheck -backward -core C -trim T -emit-lrat L
// formula proof.drat`: the DRUP backward checker with deletions.
func runDRAT(in *input, outDir string, reg *obs.Registry) (o outcome) {
	start := time.Now()
	defer func() { o.total = time.Since(start) }()

	f, err := readFile(in.CNF, cnf.ParseDimacs)
	o.parseCNF = time.Since(start)
	if err != nil {
		return badInput(o)
	}
	o.f = f
	t := time.Now()
	p, err := readFile(in.DRAT, drat.Read)
	o.parseProof = time.Since(t)
	if err != nil {
		return badInput(o)
	}

	t = time.Now()
	hints := new(lrat.Recorder)
	res, trimmed, coreIdx, err := drat.VerifyBackwardOpts(f, p, drat.BackwardOptions{Obs: reg, Hints: hints})
	o.verify = time.Since(t)
	if err != nil {
		o.err = err
		return o
	}
	o.dratR = res
	if !res.OK {
		o.verdict = wantRejected
		return o
	}
	o.verdict = wantVerified

	t = time.Now()
	base := filepath.Join(outDir, in.Name)
	o.err = firstErr(
		func() error {
			return atomicio.WriteFile(base+".trim.drat", func(w io.Writer) error { return drat.Write(w, trimmed) })
		},
		func() error {
			return atomicio.WriteFile(base+".core.cnf", func(w io.Writer) error { return cnf.WriteDimacs(w, f.Restrict(coreIdx)) })
		},
		func() error { return writeLRAT(base+".lrat", hints) },
	)
	o.artifacts = time.Since(t)
	o.lratFn = base + ".lrat"
	return o
}

func badInput(o outcome) outcome {
	o.verdict = wantBadInput
	return o
}

// readFile opens path and parses it, the way the CLIs open their inputs.
func readFile[T any](path string, parse func(io.Reader) (T, error)) (T, error) {
	fh, err := os.Open(path)
	if err != nil {
		var zero T
		return zero, err
	}
	defer fh.Close()
	return parse(fh)
}

func writeLRAT(path string, rec *lrat.Recorder) error {
	lp, err := rec.Proof()
	if err != nil {
		return err
	}
	return atomicio.WriteFile(path, func(w io.Writer) error { return lrat.Write(w, lp) })
}

func firstErr(fs ...func() error) error {
	for _, f := range fs {
		if err := f(); err != nil {
			return err
		}
	}
	return nil
}
