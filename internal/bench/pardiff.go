package bench

// DiffPar gates a fresh parallel-schedule benchmark report against the
// committed BENCH_par.json baseline, with the same split as DiffBCP:
//
//   - the hint DAG's shape (tasks, edges, total and critical cost, depth)
//     is a deterministic function of the instance and the emission code,
//     gated per instance at tol; growth here means the recorder started
//     emitting fatter hint lists or the DAG builder added dependencies.
//   - scheduled replay throughput (cost-units/sec through sched.Run) is
//     gated on the suite aggregate over common instances at twice tol and
//     only above the noise floor.
//
// The end-to-end walls (chunked, sequential check-marked and check-all)
// are reported, not gated: on a shared 2-CPU host the chunked-to-
// sequential ratio of the quick suite moved by more than 50% between
// back-to-back runs.
//
// Zero comparisons means the reports share no instances; callers should
// treat that as an error, not a pass.
func DiffPar(base, fresh *ParReport, tol float64) (regs []Regression, compared int) {
	baseInst := map[string]ParInstanceReport{}
	for _, ir := range base.Instances {
		baseInst[ir.Name] = ir
	}

	det := func(name, metric string, b, f int64) {
		compared++
		if b > 0 && float64(f) > float64(b)*(1+tol) {
			regs = append(regs, Regression{Instance: name, Engine: "dag",
				Metric: metric, Base: float64(b), Fresh: float64(f),
				Delta: float64(f)/float64(b) - 1})
		}
	}

	var baseCost, freshCost int64
	var baseTW, freshTW float64
	for _, fir := range fresh.Instances {
		bir, ok := baseInst[fir.Name]
		if !ok {
			continue
		}
		det(fir.Name, "dag-tasks", int64(bir.DAGStats.Tasks), int64(fir.DAGStats.Tasks))
		det(fir.Name, "dag-edges", int64(bir.DAGStats.Edges), int64(fir.DAGStats.Edges))
		det(fir.Name, "dag-total-cost", bir.DAGStats.TotalCost, fir.DAGStats.TotalCost)
		det(fir.Name, "dag-crit-cost", bir.DAGStats.CritCost, fir.DAGStats.CritCost)
		det(fir.Name, "dag-depth", int64(bir.DAGStats.Depth), int64(fir.DAGStats.Depth))

		baseCost += bir.DAGStats.TotalCost
		freshCost += fir.DAGStats.TotalCost
		baseTW += bir.TWMillis
		freshTW += fir.TWMillis
	}
	if compared == 0 {
		return nil, 0
	}

	if baseTW >= minWallMillis && freshTW >= minWallMillis {
		bc := float64(baseCost) / (baseTW / 1e3)
		fc := float64(freshCost) / (freshTW / 1e3)
		compared++
		if bc > 0 && fc < bc*(1-wallTolFactor*tol) {
			regs = append(regs, Regression{Engine: "dag", Metric: "replay-cost/sec",
				Base: bc, Fresh: fc, Delta: bc/fc - 1})
		}
	}
	return regs, compared
}
