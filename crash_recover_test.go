package repro

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/cnf"
	"repro/internal/drat"
	"repro/internal/proof"
)

// Kill-and-recover: the built binaries are SIGKILLed at seeded checkpoint
// appends (the DPV_FAULT_CRASH_AFTER_APPENDS hook fires right after a record
// becomes durable — the exact state a power cut leaves) and restarted with
// -resume until they finish. The crash-safety contract is that the final
// verdict, exit code, stdout report, and every artifact written are
// byte-identical to an uninterrupted checkpointed run, for every verifier
// configuration: pv1/pv2 × watched/counting × sequential/chunked parallel,
// plus the DRAT backward checker.

// mkcl builds a clause from DIMACS literals.
func mkcl(lits ...int) cnf.Clause {
	c := make(cnf.Clause, len(lits))
	for i, l := range lits {
		c[i] = cnf.FromDimacs(l)
	}
	return c
}

// writeChainFixtures emits the implication chain x1, xi→xi+1, ¬xn with its
// unit-clause refutation in both proof formats. Deterministic and long — the
// point is a run that crosses many checkpoint boundaries, not a hard search.
func writeChainFixtures(t *testing.T, dir string, n int) (cnfPath, tracePath, dratPath string) {
	t.Helper()
	f := cnf.NewFormula(n)
	f.Clauses = append(f.Clauses, mkcl(1))
	for i := 1; i < n; i++ {
		f.Clauses = append(f.Clauses, mkcl(-i, i+1))
	}
	f.Clauses = append(f.Clauses, mkcl(-n))

	tr := proof.New()
	tr.Resolutions = nil
	for i := 2; i <= n; i++ {
		tr.Clauses = append(tr.Clauses, mkcl(i))
	}
	tr.Clauses = append(tr.Clauses, mkcl(-n))

	dp := &drat.Proof{}
	for i := 2; i <= n; i++ {
		dp.Add(mkcl(i))
	}
	dp.Add(nil)

	write := func(name string, emit func(*os.File) error) string {
		path := filepath.Join(dir, name)
		out, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := emit(out); err != nil {
			t.Fatal(err)
		}
		if err := out.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	cnfPath = write("chain.cnf", func(o *os.File) error { return cnf.WriteDimacs(o, f) })
	tracePath = write("chain.trace", func(o *os.File) error { return proof.Write(o, tr) })
	dratPath = write("chain.drat", func(o *os.File) error { return drat.Write(o, dp) })
	return
}

// runWithEnv runs bin, returning the exit code (-1 when killed by a signal)
// and stdout only — stderr carries resume warnings that legitimately differ
// between the baseline and recovered runs.
func runWithEnv(t *testing.T, env []string, bin string, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), env...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err := cmd.Run()
	if err == nil {
		return 0, stdout.String()
	}
	if ee, ok := err.(*exec.ExitError); ok {
		return ee.ExitCode(), stdout.String()
	}
	t.Fatalf("running %s %v: %v\nstderr:\n%s", bin, args, err, stderr.String())
	return -2, ""
}

// crashUntilDone runs the command under the crash hook, restarting with
// resumeArgs after every SIGKILL, until a run completes. It returns the
// final run's stdout and how many crashes were survived.
func crashUntilDone(t *testing.T, bin string, firstArgs, resumeArgs []string) (string, int) {
	t.Helper()
	env := []string{"DPV_FAULT_CRASH_AFTER_APPENDS=2"}
	args := firstArgs
	for cycle := 0; cycle < 60; cycle++ {
		code, out := runWithEnv(t, env, bin, args...)
		if code == 0 {
			return out, cycle
		}
		if code != -1 {
			t.Fatalf("cycle %d: exit code %d, want 0 (done) or -1 (SIGKILLed)\nstdout:\n%s", cycle, code, out)
		}
		args = resumeArgs
	}
	t.Fatal("60 crash/resume cycles without completing — resume is not making progress")
	return "", 0
}

func TestCrashRecoverMatrix(t *testing.T) {
	bins := buildCmds(t)
	fixtures := t.TempDir()
	const n = 4000
	cnfPath, tracePath, dratPath := writeChainFixtures(t, fixtures, n)
	every := strconv.Itoa(n / 8)
	dpv := filepath.Join(bins, "dpv")
	dratcheck := filepath.Join(bins, "dratcheck")
	lratcheck := filepath.Join(bins, "lratcheck")

	type config struct {
		name string
		args []string // verifier configuration flags
		core bool     // sequential configs also compare the core and LRAT artifacts
	}
	var cfgs []config
	for _, eng := range []string{"watched", "counting"} {
		cfgs = append(cfgs,
			config{"pv2-" + eng, []string{"-engine", eng}, true},
			config{"pv1-" + eng, []string{"-all", "-engine", eng}, true},
			config{"par-" + eng, []string{"-par", "3", "-engine", eng}, false},
			// One worker runs the sequential checker, so its journal must
			// hold sequential records that -resume accepts.
			config{"par1-" + eng, []string{"-par", "1", "-engine", eng}, false},
		)
	}

	for _, tc := range cfgs {
		tc := tc
		t.Run("dpv/"+tc.name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			mkArgs := func(tag string, resume bool) []string {
				args := append([]string{}, tc.args...)
				args = append(args, "-checkpoint", filepath.Join(dir, tag+".dpvj"), "-checkpoint-every", every)
				if resume {
					args = append(args, "-resume")
				}
				if tc.core {
					args = append(args, "-core", filepath.Join(dir, tag+".core"),
						"-emit-lrat", filepath.Join(dir, tag+".lrat"))
				}
				return append(args, cnfPath, tracePath)
			}

			code, baseOut := runWithEnv(t, nil, dpv, mkArgs("base", false)...)
			if code != 0 {
				t.Fatalf("baseline exit %d:\n%s", code, baseOut)
			}
			out, crashes := crashUntilDone(t, dpv, mkArgs("crash", false), mkArgs("crash", true))
			if crashes == 0 {
				t.Fatal("run completed without a single injected crash — hook not biting")
			}
			if out != baseOut {
				t.Errorf("recovered stdout diverged after %d crashes:\n got %q\nwant %q", crashes, out, baseOut)
			}
			if tc.core {
				for _, ext := range []string{".core", ".lrat"} {
					base, err := os.ReadFile(filepath.Join(dir, "base"+ext))
					if err != nil {
						t.Fatal(err)
					}
					rec, err := os.ReadFile(filepath.Join(dir, "crash"+ext))
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(base, rec) {
						t.Errorf("recovered %s artifact is not byte-identical to the baseline", ext)
					}
				}
				// The emitted hinted proof must round-trip through lratcheck.
				if code, out := runWithEnv(t, nil, lratcheck, "-q", cnfPath, filepath.Join(dir, "base.lrat")); code != 0 {
					t.Errorf("lratcheck rejected the emitted proof (exit %d):\n%s", code, out)
				}
			}
			// A verdict was reached, so both journals must be gone.
			for _, tag := range []string{"base", "crash"} {
				if _, err := os.Stat(filepath.Join(dir, tag+".dpvj")); !os.IsNotExist(err) {
					t.Errorf("journal %s.dpvj still present after a verdict (err=%v)", tag, err)
				}
			}
			t.Logf("recovered across %d crashes", crashes)
		})
	}

	t.Run("dratcheck/backward", func(t *testing.T) {
		t.Parallel()
		dir := t.TempDir()
		mkArgs := func(tag string, resume bool) []string {
			args := []string{"-backward",
				"-checkpoint", filepath.Join(dir, tag+".dpvj"), "-checkpoint-every", every,
				"-trim", filepath.Join(dir, tag+".drat"), "-core", filepath.Join(dir, tag+".core"),
				"-emit-lrat", filepath.Join(dir, tag+".lrat")}
			if resume {
				args = append(args, "-resume")
			}
			return append(args, cnfPath, dratPath)
		}
		code, baseOut := runWithEnv(t, nil, dratcheck, mkArgs("base", false)...)
		if code != 0 {
			t.Fatalf("baseline exit %d:\n%s", code, baseOut)
		}
		out, crashes := crashUntilDone(t, dratcheck, mkArgs("crash", false), mkArgs("crash", true))
		if crashes == 0 {
			t.Fatal("run completed without a single injected crash — hook not biting")
		}
		if out != baseOut {
			t.Errorf("recovered stdout diverged after %d crashes:\n got %q\nwant %q", crashes, out, baseOut)
		}
		for _, ext := range []string{".drat", ".core", ".lrat"} {
			base, err := os.ReadFile(filepath.Join(dir, "base"+ext))
			if err != nil {
				t.Fatal(err)
			}
			rec, err := os.ReadFile(filepath.Join(dir, "crash"+ext))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(base, rec) {
				t.Errorf("recovered %s artifact is not byte-identical to the baseline", ext)
			}
		}
		if _, err := os.Stat(filepath.Join(dir, "crash.dpvj")); !os.IsNotExist(err) {
			t.Errorf("journal still present after a verdict (err=%v)", err)
		}
		if code, lout := runWithEnv(t, nil, lratcheck, "-q", cnfPath, filepath.Join(dir, "base.lrat")); code != 0 {
			t.Errorf("lratcheck rejected the emitted proof (exit %d):\n%s", code, lout)
		}
		t.Logf("recovered across %d crashes", crashes)
	})
}

// TestCrashHookFiresAfterDurableAppend pins the crash point itself: a killed
// run must leave a journal whose records are readable up to (at least) the
// append the hook fired on — the record is durable before the SIGKILL.
func TestCrashHookFiresAfterDurableAppend(t *testing.T) {
	bins := buildCmds(t)
	dir := t.TempDir()
	cnfPath, tracePath, _ := writeChainFixtures(t, dir, 2000)
	j := filepath.Join(dir, "ck.dpvj")
	code, out := runWithEnv(t, []string{"DPV_FAULT_CRASH_AFTER_APPENDS=1"}, filepath.Join(bins, "dpv"),
		"-q", "-checkpoint", j, "-checkpoint-every", "100", cnfPath, tracePath)
	if code != -1 {
		t.Fatalf("exit code %d, want SIGKILL death\n%s", code, out)
	}
	data, err := os.ReadFile(j)
	if err != nil {
		t.Fatal(err)
	}
	markers := journalMarkers(t, data)
	if len(markers) != 1 || markers[0] != 'C' {
		t.Fatalf("journal after crash-at-append-1 holds records %q, want exactly one checkpoint", markers)
	}
}

// journalMarkers parses the record markers of a journal's complete frames.
func journalMarkers(t *testing.T, data []byte) []byte {
	t.Helper()
	const headerSize = 40
	if len(data) < headerSize {
		t.Fatalf("journal is %d bytes, shorter than its header", len(data))
	}
	var markers []byte
	rest := data[headerSize:]
	for len(rest) >= 5 {
		n := int(uint32(rest[1]) | uint32(rest[2])<<8 | uint32(rest[3])<<16 | uint32(rest[4])<<24)
		total := 5 + n + 4
		if len(rest) < total {
			break // torn tail
		}
		markers = append(markers, rest[0])
		rest = rest[total:]
	}
	return markers
}
