package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
)

// fingerprint is the timer-free record of the work a run did: exact work
// counters and digests of the artifacts the program wrote. Two runs of the
// same binary on the same seed must produce identical fingerprints.
type fingerprint struct {
	Counters map[string]int64  `json:"counters"`
	Digests  map[string]string `json:"digests"`
}

func newFingerprint() *fingerprint {
	return &fingerprint{Counters: map[string]int64{}, Digests: map[string]string{}}
}

func (f *fingerprint) add(name string, v int64) { f.Counters[name] += v }

func (f *fingerprint) equal(g *fingerprint) bool {
	return reflect.DeepEqual(f.Counters, g.Counters) && reflect.DeepEqual(f.Digests, g.Digests)
}

// diff names the first entry where f and g differ, for the failure message.
func (f *fingerprint) diff(g *fingerprint) string {
	for k, v := range f.Counters {
		if g.Counters[k] != v {
			return fmt.Sprintf("counter %s: %d vs %d", k, v, g.Counters[k])
		}
	}
	for k, v := range f.Digests {
		if g.Digests[k] != v {
			return fmt.Sprintf("digest %s: %.12s vs %.12s", k, v, g.Digests[k])
		}
	}
	return fmt.Sprintf("entry counts %d/%d vs %d/%d", len(f.Counters), len(f.Digests), len(g.Counters), len(g.Digests))
}

// checkFingerprint compares the run's fingerprint with the one an earlier
// run of the same binary recorded for the same workload, seed and mode, and
// records it when there is none yet.
func checkFingerprint(cfg config, rep *report) error {
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("fingerprint: %w", err)
	}
	bin, err := fileDigest(exe)
	if err != nil {
		return fmt.Errorf("fingerprint: %w", err)
	}
	key := fmt.Sprintf("%.16s-%s-seed%d-trace%t-tiny%t-rate%g.json", bin, cfg.workload, cfg.seed, cfg.trace, cfg.tiny, cfg.rate)
	dir := filepath.Join(cfg.workdir, "fingerprints")
	path := filepath.Join(dir, key)
	if b, err := os.ReadFile(path); err == nil {
		var prev fingerprint
		if err := json.Unmarshal(b, &prev); err != nil {
			return fmt.Errorf("fingerprint %s: %w", path, err)
		}
		if !prev.equal(rep.fp) {
			return fmt.Errorf("work fingerprint differs from an earlier run of this binary with the same seed (%s)", prev.diff(rep.fp))
		}
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("fingerprint: %w", err)
	}
	b, err := json.Marshal(rep.fp)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// provenance describes the host, the code and the inputs of a run, so two
// result files can show they measured the same bytes on comparable hosts.
func provenance(cfg config, rep *report) map[string]any {
	rev, err := gitRev(".")
	if err != nil {
		rev = "unknown"
	}
	src, err := sourceDigest(".")
	if err != nil {
		src = "unknown"
	}
	return map[string]any{
		"workload":      cfg.workload,
		"seed":          cfg.seed,
		"seconds":       cfg.seconds,
		"trace":         cfg.trace,
		"rate":          cfg.rate,
		"tiny":          cfg.tiny,
		"num_cpu":       runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"goos_goarch":   runtime.GOOS + "/" + runtime.GOARCH,
		"git_rev":       rev,
		"source_digest": src,
		"inputs":        rep.inputs,
	}
}

// gitRev reads the commit checked out at root without running git. The
// benchmark's checkout need not be a repository; then it fails.
func gitRev(root string) (string, error) {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "", err
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head)), nil
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b)), nil
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha, nil
		}
	}
	return "", fmt.Errorf("ref %s not found", ref)
}

// sourceDigest hashes every Go source and go.mod under root, skipping
// dot-directories (VCS metadata, build output). It identifies the code
// measured even where no git metadata exists.
func sourceDigest(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, filepath.ToSlash(path)+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func fileDigest(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func bytesDigest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}
