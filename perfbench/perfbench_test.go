package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

type benchSpec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func runOnce(t *testing.T, workdir string, args ...string) result {
	t.Helper()
	var out, errb bytes.Buffer
	args = append(args, "--seconds", "1", "--tiny", "--rate", "30", "--workdir", workdir)
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("run %v: exit %d\n%s", args, code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not a result: %v", err)
	}
	if !r.Correct || r.Attempted < 1 || r.Failed != 0 {
		t.Fatalf("result correct=%v attempted=%d failed=%d\n%s", r.Correct, r.Attempted, r.Failed, errb.String())
	}
	return r
}

// TestSmoke runs every workload at tiny sizes in both modes and checks
// that each prints exactly its metrics from BENCHMARK.json with their
// units, and that a second run of the same seed repeats the first's work
// fingerprint (run fails otherwise).
func TestSmoke(t *testing.T) {
	spec := readSpec(t)
	for _, w := range spec.Workloads {
		for trace, want := range [][]struct{ Name, Unit string }{spec.EndToEnd, spec.PerLayer} {
			w, trace, want := w, trace, want
			t.Run(fmt.Sprintf("%s/trace%d", w.Name, trace), func(t *testing.T) {
				dir := t.TempDir()
				args := []string{"--workload", w.Name, "--seed", "3", "--trace", fmt.Sprint(trace)}
				r := runOnce(t, dir, args...)
				if len(r.Metrics) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json lists %d", len(r.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := r.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
					}
				}
				runOnce(t, dir, args...)
			})
		}
	}
}

// TestUnitsMatchSpec keeps the program's unit table and BENCHMARK.json in
// step.
func TestUnitsMatchSpec(t *testing.T) {
	spec := readSpec(t)
	n := 0
	for _, list := range [][]struct{ Name, Unit string }{spec.EndToEnd, spec.PerLayer} {
		for _, m := range list {
			n++
			if units[m.Name] != m.Unit {
				t.Errorf("%s: program unit %q, BENCHMARK.json unit %q", m.Name, units[m.Name], m.Unit)
			}
		}
	}
	if n != len(units) {
		t.Errorf("program knows %d metrics, BENCHMARK.json lists %d", len(units), n)
	}
}
