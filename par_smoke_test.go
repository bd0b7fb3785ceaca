package repro

import (
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// Parallel smoke: the same proof driven through dpv sequentially and with
// the fixed-chunk split. The verdict line must agree, and the chunked
// report must say what ran — check-all, no core. One worker runs the
// sequential check-all checker, so its report equals -all's. The hinted
// proof the sequential run emits must replay under both lratcheck
// schedules, the work-stealing DAG one included.
func TestParSmoke(t *testing.T) {
	bins := buildCmds(t)
	fixtures := t.TempDir()
	const n = 1500
	cnfPath, tracePath, _ := writeChainFixtures(t, fixtures, n)
	dpv := filepath.Join(bins, "dpv")
	lratcheck := filepath.Join(bins, "lratcheck")
	dir := t.TempDir()
	lratPath := filepath.Join(dir, "seq.lrat")

	code, seqOut := runWithEnv(t, nil, dpv, "-emit-lrat", lratPath, cnfPath, tracePath)
	if code != 0 {
		t.Fatalf("sequential exit %d:\n%s", code, seqOut)
	}
	code, chunkOut := runWithEnv(t, nil, dpv, "-par", "4", cnfPath, tracePath)
	if code != 0 {
		t.Fatalf("chunk exit %d:\n%s", code, chunkOut)
	}
	const verdict = "s PROOF VERIFIED\n"
	if !strings.HasPrefix(chunkOut, verdict) || !strings.HasPrefix(seqOut, verdict) {
		t.Fatalf("verdict lines diverged:\nchunk %q\nseq %q", chunkOut, seqOut)
	}
	for _, line := range []string{
		"c mode=check-all engine=watched",
		"c unsat core: not extracted",
	} {
		if !strings.Contains(chunkOut, "\n"+line) {
			t.Errorf("chunked report lacks %q:\n%s", line, chunkOut)
		}
	}

	code, allOut := runWithEnv(t, nil, dpv, "-all", cnfPath, tracePath)
	if code != 0 {
		t.Fatalf("-all exit %d:\n%s", code, allOut)
	}
	code, par1Out := runWithEnv(t, nil, dpv, "-par", "1", cnfPath, tracePath)
	if code != 0 {
		t.Fatalf("-par 1 exit %d:\n%s", code, par1Out)
	}
	if par1Out != allOut {
		t.Errorf("-par 1 report diverged from -all:\n got %q\nwant %q", par1Out, allOut)
	}

	for _, sched := range []string{"chunk", "dag"} {
		code, out := runWithEnv(t, nil, lratcheck,
			"-q", "-par", strconv.Itoa(4), "-sched", sched, cnfPath, lratPath)
		if code != 0 {
			t.Errorf("lratcheck -sched %s rejected the emitted proof (exit %d):\n%s", sched, code, out)
		}
	}
}
