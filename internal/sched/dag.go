// Package sched schedules dependency-aware parallel verification over a
// task DAG. The verifier's unit of work is one recorded proof step; the
// hint lists recorded by the LRAT pipeline name exactly which earlier steps
// a step's conflict touched, so the clause-dependency DAG is available for
// free: nodes are proof additions, edges point from a hinted antecedent's
// addition step to the step that cites it. Fixed contiguous chunking (the
// baseline in internal/core and internal/lrat) makes wall-clock track the
// slowest chunk; scheduling over the DAG makes it track the critical path.
//
// The package has two halves: Builder/DAG construct the dependency graph
// and its shape statistics (in-degrees, critical-path depth and cost, level
// widths), and Run executes a TaskFunc over it with a work-stealing
// scheduler — per-worker bounded deques seeded with the ready (in-degree
// zero) tasks, LIFO local pop for cache locality, FIFO steal from random
// victims, completion decrementing successors' in-degrees to release new
// work. See sched.go for the runtime and its checkpoint-watermark contract.
package sched

import "fmt"

// Strategy selects between the fixed-chunk baseline and DAG scheduling.
// The zero value is StrategyChunk so existing callers keep their behavior.
type Strategy int

const (
	// StrategyChunk slices the work into fixed contiguous per-worker chunks.
	StrategyChunk Strategy = iota
	// StrategyDAG schedules work-stealing style over the dependency DAG.
	StrategyDAG
)

func (s Strategy) String() string {
	if s == StrategyDAG {
		return "dag"
	}
	return "chunk"
}

// ParseStrategy maps the CLI spelling ("chunk" | "dag") to a Strategy.
func ParseStrategy(name string) (Strategy, error) {
	switch name {
	case "chunk":
		return StrategyChunk, nil
	case "dag":
		return StrategyDAG, nil
	}
	return StrategyChunk, fmt.Errorf("sched: unknown strategy %q (want chunk or dag)", name)
}

// Builder accumulates tasks, forward edges and per-task costs for a DAG.
// Tasks are dense indices 0..n-1; every edge must point forward (from < to),
// which is what makes the graph acyclic by construction — proof steps only
// cite earlier steps, so the verifier's edges satisfy this for free.
type Builder struct {
	n     int
	edges []edge
	cost  []int64
}

type edge struct{ from, to int32 }

// NewBuilder starts a DAG over n tasks. Every task's cost defaults to 1.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("sched: negative task count")
	}
	return &Builder{n: n}
}

// AddEdge records that task `to` depends on task `from`. Edges must point
// forward; a backward or self edge is a caller bug and panics. Duplicate
// edges are kept: the in-degree counts each citation and completion releases
// each one, so the bookkeeping stays consistent either way.
func (b *Builder) AddEdge(from, to int) {
	if from < 0 || to >= b.n || from >= to {
		panic(fmt.Sprintf("sched: edge %d->%d is not a forward edge over %d tasks", from, to, b.n))
	}
	b.edges = append(b.edges, edge{int32(from), int32(to)})
}

// SetCost records a task's relative cost (used only for critical-path
// statistics, never for scheduling decisions). Non-positive costs clamp to 1.
func (b *Builder) SetCost(task int, cost int64) {
	if b.cost == nil {
		b.cost = make([]int64, b.n)
	}
	if cost < 1 {
		cost = 1
	}
	b.cost[task] = cost
}

// DAG is the immutable dependency graph Run executes over: successor lists
// in CSR form, initial in-degrees, and per-task costs.
type DAG struct {
	n       int
	succ    []int32
	succOff []int32
	indeg   []int32
	cost    []int64
}

// Build freezes the builder into a DAG. The builder may be reused afterward
// only by discarding it; Build does not copy the cost slice.
func (b *Builder) Build() *DAG {
	d := &DAG{n: b.n, cost: b.cost}
	if d.cost == nil {
		d.cost = make([]int64, b.n)
	}
	for i := range d.cost {
		if d.cost[i] < 1 {
			d.cost[i] = 1
		}
	}
	d.indeg = make([]int32, b.n)
	d.succOff = make([]int32, b.n+1)
	for _, e := range b.edges {
		d.succOff[e.from+1]++
		d.indeg[e.to]++
	}
	for i := 0; i < b.n; i++ {
		d.succOff[i+1] += d.succOff[i]
	}
	d.succ = make([]int32, len(b.edges))
	fill := make([]int32, b.n)
	for _, e := range b.edges {
		d.succ[d.succOff[e.from]+fill[e.from]] = e.to
		fill[e.from]++
	}
	return d
}

// Tasks reports the number of tasks in the DAG.
func (d *DAG) Tasks() int { return d.n }

// Successors returns task t's successor list (shared storage; do not mutate).
func (d *DAG) Successors(t int) []int32 {
	return d.succ[d.succOff[t]:d.succOff[t+1]]
}

// Stats summarizes the DAG's shape. Depth and MaxWidth are in tasks over
// the level structure (a task's level is 1 + the max level of its
// predecessors); CritCost is the heaviest cost-weighted path, the lower
// bound no amount of parallelism can beat. TotalCost/CritCost is therefore
// the maximum speedup the DAG's shape admits.
type Stats struct {
	Tasks     int     `json:"tasks"`
	Edges     int     `json:"edges"`
	Roots     int     `json:"roots"` // in-degree-zero tasks: the initial ready set
	Depth     int     `json:"depth"` // critical path length in tasks
	MaxWidth  int     `json:"max_width"`
	AvgOut    float64 `json:"avg_out_degree"`
	TotalCost int64   `json:"total_cost"`
	CritCost  int64   `json:"crit_cost"`
}

// Stats computes the DAG's shape statistics in one forward pass (task order
// is topological because every edge points forward).
func (d *DAG) Stats() Stats {
	st := Stats{Tasks: d.n, Edges: len(d.succ)}
	if d.n == 0 {
		return st
	}
	depth := make([]int32, d.n) // level of each task, 0 until finalized
	reach := make([]int64, d.n) // heaviest cost-weighted path ending before the task
	width := map[int32]int{}
	for t := 0; t < d.n; t++ {
		if d.indeg[t] == 0 {
			st.Roots++
		}
		lvl := depth[t] + 1
		crit := reach[t] + d.cost[t]
		width[lvl]++
		if int(lvl) > st.Depth {
			st.Depth = int(lvl)
		}
		if crit > st.CritCost {
			st.CritCost = crit
		}
		st.TotalCost += d.cost[t]
		for _, s := range d.Successors(t) {
			if depth[s] < lvl {
				depth[s] = lvl
			}
			if reach[s] < crit {
				reach[s] = crit
			}
		}
	}
	for _, n := range width {
		if n > st.MaxWidth {
			st.MaxWidth = n
		}
	}
	st.AvgOut = float64(st.Edges) / float64(st.Tasks)
	return st
}
