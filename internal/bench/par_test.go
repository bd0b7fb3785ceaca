package bench

import "testing"

// parGateReport builds a small two-instance parallel-schedule report; the
// numbers are chosen so a test can degrade one copy and watch the gate trip.
func parGateReport() *ParReport {
	mk := func(name string, tasks, edges int, total, crit int64, tw float64) ParInstanceReport {
		ir := ParInstanceReport{Name: name, TWMillis: tw}
		ir.DAGStats.Tasks = tasks
		ir.DAGStats.Edges = edges
		ir.DAGStats.TotalCost = total
		ir.DAGStats.CritCost = crit
		ir.DAGStats.Depth = 3
		return ir
	}
	return &ParReport{
		Instances: []ParInstanceReport{
			mk("imb", 100, 99, 20000, 900, 8),
			mk("wide", 700, 699, 900000, 4000, 9),
		},
	}
}

func TestDiffParPassesOnIdenticalReports(t *testing.T) {
	regs, compared := DiffPar(parGateReport(), parGateReport(), 0.15)
	if len(regs) != 0 {
		t.Fatalf("identical reports must pass, got %v", regs)
	}
	// 2 instances x 5 shape metrics + the replay-cost/sec aggregate.
	if compared != 11 {
		t.Fatalf("compared = %d, want 11", compared)
	}
}

func TestDiffParFailsOnFatterDAG(t *testing.T) {
	fresh := parGateReport()
	fresh.Instances[1].DAGStats.TotalCost = 1200000 // +33% replay cost on wide
	regs, _ := DiffPar(parGateReport(), fresh, 0.15)
	var hit bool
	for _, r := range regs {
		if r.Instance == "wide" && r.Metric == "dag-total-cost" {
			hit = true
		}
	}
	if !hit {
		t.Fatalf("total-cost growth not caught: %v", regs)
	}
}

func TestDiffParFailsOnSlowerReplay(t *testing.T) {
	fresh := parGateReport()
	for i := range fresh.Instances {
		fresh.Instances[i].TWMillis *= 3 // scheduled replay got 3x slower everywhere
	}
	regs, _ := DiffPar(parGateReport(), fresh, 0.15)
	var hit bool
	for _, r := range regs {
		if r.Metric == "replay-cost/sec" {
			hit = true
		}
	}
	if !hit {
		t.Fatalf("replay throughput collapse not caught: %v", regs)
	}
}

func TestDiffParVacuousOnDisjointReports(t *testing.T) {
	fresh := parGateReport()
	fresh.Instances[0].Name = "other-a"
	fresh.Instances[1].Name = "other-b"
	if _, compared := DiffPar(parGateReport(), fresh, 0.15); compared != 0 {
		t.Fatalf("disjoint reports compared %d metrics, want 0", compared)
	}
}

// The quick suite must be a prefix of the full one — same names, same
// parameters — or quick gate runs would never share instances with the
// committed baseline.
func TestParInstancesQuickIsPrefixOfFull(t *testing.T) {
	full, quick := ParInstances(false), ParInstances(true)
	if len(quick) == 0 || len(quick) >= len(full) {
		t.Fatalf("quick/full sizes: %d/%d", len(quick), len(full))
	}
	for i, q := range quick {
		f := full[i]
		if q.Name != f.Name || q.F.NumClauses() != f.F.NumClauses() || q.T.Len() != f.T.Len() {
			t.Fatalf("quick[%d] diverges from full[%d]: %s/%s", i, i, q.Name, f.Name)
		}
	}
}

// End to end on a miniature suite: every run accepts, the report is
// internally consistent, and the DAG shape matches the construction.
func TestParBenchSmall(t *testing.T) {
	inst := selectorBlocks("tiny", 4, 30, 6, 20, 3)
	rep, err := ParBench([]ParInstance{inst}, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	ir := rep.Instances[0]
	if ir.TraceLen != 11 { // 4 junk + 6 marked + empty
		t.Errorf("trace len = %d, want 11", ir.TraceLen)
	}
	if ir.Marked != 7 { // 6 marked units + the empty step
		t.Errorf("marked = %d, want 7", ir.Marked)
	}
	if ir.DAGStats.Tasks == 0 || ir.DAGStats.CritCost == 0 ||
		ir.DAGStats.CritCost > ir.DAGStats.TotalCost {
		t.Errorf("implausible DAG stats: %+v", ir.DAGStats)
	}
	// depth=3 chains pairs of marked blocks: the DAG must not be flat.
	if ir.DAGStats.Depth < 3 {
		t.Errorf("depth = %d, want >= 3 (chained marked blocks)", ir.DAGStats.Depth)
	}
	if ir.ChunkMillis <= 0 || ir.SeqMarkedMillis <= 0 || ir.SeqAllMillis <= 0 ||
		ir.T1Millis <= 0 || ir.TWMillis <= 0 {
		t.Errorf("non-positive walls: %+v", ir)
	}
	if rep.TotalSeqAllMillis != ir.SeqAllMillis {
		t.Errorf("suite seq-all total = %v, want %v", rep.TotalSeqAllMillis, ir.SeqAllMillis)
	}
}
