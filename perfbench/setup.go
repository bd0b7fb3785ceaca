package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/cnf"
	"repro/internal/drat"
	"repro/internal/faults"
	"repro/internal/gen"
	"repro/internal/proof"
	"repro/internal/solver"
)

// Known answers. They follow from how each input is built, never from the
// checker under test.
const (
	wantVerified = "verified"
	wantRejected = "rejected"
	wantBadInput = "bad_input"
)

// noFault marks an unmodified input.
const noFault faults.Kind = -1

// spec is one input before it is solved: a generated instance and the
// corruption, if any, applied to its solved proof.
type spec struct {
	inst  gen.Instance
	fault faults.Kind
}

// input is one generated, solved and encoded input. The program under
// test only ever sees the files (or, for dpvd, the upload body built from
// them).
type input struct {
	Name     string
	Want     string // verdict of the dpv path (and dpvd)
	WantDRAT string // verdict of the dratcheck -backward path
	CNF      string // DIMACS formula
	Size     int64  // its length in bytes
	Trace    string // conflict-clause trace (every learned clause, in order)
	DRAT     string // DRUP proof with the solver's deletions
	Body     []byte // dpvd multipart upload of CNF + Trace
	CType    string // its Content-Type
}

// workloadSpecs lists the inputs of a workload. The seed picks the random
// instance and the corruption positions; everything else is fixed, so a
// seed changes only a small share of the work. The random 3-CNF at clause
// ratio 6 is unsatisfiable with overwhelming probability; set-up fails
// loudly, rather than substituting another instance, if the solver ever
// finds it satisfiable.
func workloadSpecs(name string, seed int64, tiny bool) []spec {
	var out []spec
	add := func(insts ...gen.Instance) {
		for _, in := range insts {
			out = append(out, spec{in, noFault})
		}
	}
	// PHP(n) is minimally unsatisfiable: dropping any formula clause makes
	// it satisfiable, so its old proof must not verify. A duplicated proof
	// clause keeps the proof valid; a truncated trace loses its final
	// conflicting pair.
	faulty := func(n int, kinds ...faults.Kind) {
		for _, k := range kinds {
			out = append(out, spec{gen.PHP(n), k})
		}
	}
	all := []faults.Kind{faults.DropFormulaClause, faults.DupClause, faults.TruncateTrace}
	switch {
	case name == "deep-proofs" && tiny, name == "dpvd-jobs" && tiny:
		add(gen.PHP(5), gen.SorterEquiv(6), gen.RandUnsat(seed, 40))
		faulty(4, all...)
	case name == "deep-proofs":
		add(gen.PHP(8), gen.Longmult(7, 6), gen.Counter(10, 80), gen.Fifo(8, 50),
			gen.SorterEquiv(14), gen.Pipe(5, 8), gen.RandUnsat(seed, 120))
		faulty(6, all...)
	case name == "wide-formulas" && tiny:
		add(gen.RandUnsatChained(seed, 40, 3000), gen.PHPPinned(4, 10))
	case name == "wide-formulas":
		add(gen.RandUnsatChained(seed, 60, 300000), gen.PHPPinned(6, 96), gen.PHPPinned(7, 80))
	case name == "drup-deletions" && tiny:
		add(gen.PHP(5), gen.RandUnsat(seed, 40))
		faulty(4, faults.DropFormulaClause)
	case name == "drup-deletions":
		add(gen.PHP(8), gen.Longmult(7, 6), gen.PHP(7), gen.RandUnsat(seed, 120))
		faulty(6, faults.DropFormulaClause)
	case name == "dpvd-jobs":
		add(gen.Longmult(6, 5), gen.Longmult(7, 5), gen.SorterEquiv(12), gen.Pipe(4, 6),
			gen.Pipe(5, 8), gen.Counter(8, 60), gen.RandUnsat(seed, 160))
		faulty(5, all...)
	}
	return out
}

// solverOptions is the proof-producing configuration: BerkMin-style
// hybrid learning with the solver's clause-database reduction, whose
// deletions the DRUP proof records.
func solverOptions(rec *drat.Recorder) solver.Options {
	return solver.Options{
		Learn:        solver.LearnHybrid,
		Heuristic:    solver.HeurBerkMin,
		MaxConflicts: 5_000_000,
		OnLearn:      rec.Learn,
		OnDelete:     rec.Delete,
	}
}

// buildInputs generates, solves and encodes every spec into dir. The
// returned digests name each written file's SHA-256.
func buildInputs(specs []spec, seed int64, dir string) ([]*input, map[string]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	digests := map[string]string{}
	var out []*input
	for i, sp := range specs {
		inst := sp.inst
		f := inst.F
		rec := drat.NewRecorder()
		st, tr, _, _, err := solver.Solve(f, solverOptions(rec))
		if err != nil {
			return nil, nil, fmt.Errorf("solve %s: %w", inst.Name, err)
		}
		if st != solver.Unsat {
			return nil, nil, fmt.Errorf("solve %s: %v, want UNSATISFIABLE", inst.Name, st)
		}
		in := &input{Name: inst.Name, Want: wantVerified, WantDRAT: wantVerified}
		dp := rec.Proof()
		if sp.fault != noFault {
			mf, mt, ok := faults.New(seed+int64(i)).Apply(sp.fault, f, tr)
			if !ok {
				return nil, nil, fmt.Errorf("fault %v does not apply to %s", sp.fault, inst.Name)
			}
			f, tr = mf, mt
			in.Name = fmt.Sprintf("%s_%v", inst.Name, sp.fault)
			switch sp.fault {
			case faults.DropFormulaClause:
				in.Want, in.WantDRAT = wantRejected, wantRejected
			case faults.TruncateTrace:
				// The trace loses its final conflicting pair: dpv refuses
				// it as malformed, while as a DRUP proof it is well formed
				// but derives no conflict.
				in.Want, in.WantDRAT = wantBadInput, wantRejected
				dp = drat.FromTrace(tr)
			case faults.DupClause:
				dp = drat.FromTrace(tr)
			}
		}
		base := filepath.Join(dir, in.Name)
		in.CNF, in.Trace, in.DRAT = base+".cnf", base+".trace", base+".drat"
		writes := []struct {
			path  string
			write func(io.Writer) error
		}{
			{in.CNF, func(w io.Writer) error { return cnf.WriteDimacs(w, f) }},
			{in.Trace, func(w io.Writer) error { return proof.Write(w, tr) }},
			{in.DRAT, func(w io.Writer) error { return drat.Write(w, dp) }},
		}
		for _, wr := range writes {
			d, err := writeFile(wr.path, wr.write)
			if err != nil {
				return nil, nil, err
			}
			digests[filepath.Base(wr.path)] = d
		}
		if fi, err := os.Stat(in.CNF); err == nil {
			in.Size = fi.Size()
		}
		if in.Body, in.CType, err = uploadBody(in); err != nil {
			return nil, nil, err
		}
		out = append(out, in)
	}
	return out, digests, nil
}

// writeFile writes a file through write and returns its SHA-256.
func writeFile(path string, write func(io.Writer) error) (string, error) {
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		return "", fmt.Errorf("encode %s: %w", path, err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return "", err
	}
	return bytesDigest(buf.Bytes()), nil
}
