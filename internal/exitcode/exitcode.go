// Package exitcode defines the outcome-class contract shared by the cmd/
// binaries and the dpvd service (whose job statuses map onto these codes
// via internal/service), so scripts and CI harnesses can tell outcome
// classes apart without parsing output. The SAT-competition codes (10/20)
// keep their conventional meaning; everything else is disjoint from them.
package exitcode

import (
	"errors"
	"flag"
	"os"

	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/proof"
)

const (
	// OK: the tool did what was asked (for checkers: proof verified).
	OK = 0
	// Usage: bad flags or arguments.
	Usage = 1
	// VerifyFailed: input was well-formed but the proof was rejected.
	VerifyFailed = 2
	// BadInput: a formula or proof file was missing, unreadable, malformed,
	// or beyond the parser's resource limits.
	BadInput = 3
	// Timeout: a -timeout deadline expired before a verdict.
	Timeout = 4
	// Budget: a resource budget (e.g. -max-props) was exhausted.
	Budget = 5
	// Internal: a defect in the tool itself — a recovered worker panic, a
	// failed output write, an invariant violation.
	Internal = 6
	// Sat / Unsat: the conventional SAT-competition solver results.
	Sat   = 10
	Unsat = 20
	// Interrupted: stopped by SIGINT; 128+SIGINT per shell convention.
	Interrupted = 130
)

// FromVerifyError maps the typed errors of core.Verify/VerifyParallelOpts
// onto exit codes. A nil error maps to OK.
func FromVerifyError(err error) int {
	switch {
	case err == nil:
		return OK
	case errors.Is(err, core.ErrDeadline):
		return Timeout
	case errors.Is(err, core.ErrCancelled):
		return Interrupted
	case errors.Is(err, core.ErrBudget):
		return Budget
	case errors.Is(err, core.ErrBadTrace):
		return BadInput
	default:
		return Internal
	}
}

// IsBadInput reports whether err is a parse-layer rejection (malformed
// input or a parser limit), as opposed to an IO or internal failure.
func IsBadInput(err error) bool {
	return errors.Is(err, cnf.ErrMalformed) || errors.Is(err, cnf.ErrLimit) ||
		errors.Is(err, proof.ErrMalformed) || errors.Is(err, proof.ErrLimit)
}

// ParseFlags parses the command line into the default flag set. A bad flag
// maps to Usage, where the flag package itself would exit 2 — the code this
// contract reserves for a rejected proof. -h prints the usage text and maps
// to OK. ok is false when the caller should exit with code.
func ParseFlags() (code int, ok bool) {
	flag.CommandLine.Init(os.Args[0], flag.ContinueOnError)
	switch err := flag.CommandLine.Parse(os.Args[1:]); {
	case err == nil:
		return OK, true
	case errors.Is(err, flag.ErrHelp):
		return OK, false
	default:
		return Usage, false
	}
}
