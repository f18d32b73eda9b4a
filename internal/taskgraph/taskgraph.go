// Package taskgraph performs software dependence analysis over a trace,
// producing the task dependence DAG under OmpSs semantics:
//
//   - a reader depends on the last writer of the address (RAW);
//   - a writer depends on the last writer (WAW) and on every reader since
//     that writer (WAR);
//   - inout is both a reader and a writer.
//
// Incremental applies these rules one task at a time; Build folds it
// over a whole trace into a Graph. This is exactly the analysis the
// Nanos++ runtime performs in software and the Picos DCT performs in
// hardware; here it serves three roles:
// the *oracle* against which both simulators are verified, the input to
// the Perfect Simulator (roofline), and the dependence engine of the
// software-only runtime model.
package taskgraph

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"repro/internal/trace"
)

// Graph is the task dependence DAG of a trace. Nodes are task indices in
// creation order.
//
// The adjacency is stored CSR-style: every Pred row is a sub-slice of
// one shared backing array and every Succ row of another, each clipped
// to its own length and capacity (rows with no edges are nil). Rows are
// read-only views — callers must not append to or write through them.
type Graph struct {
	// N is the number of tasks.
	N int
	// Succ[i] lists the tasks that depend on task i (deduplicated,
	// ascending).
	Succ [][]int32
	// Pred[i] lists the tasks task i depends on (deduplicated, ascending).
	Pred [][]int32
	// Durations[i] is task i's execution time in cycles.
	Durations []uint64
}

// buildScratch is Build's working state, pooled so a warm Build
// allocates only the Graph it returns.
type buildScratch struct {
	inc     *Incremental
	predBuf []int32 // every task's predecessors, back to back
	predEnd []int32 // predEnd[i]: end of task i's run in predBuf
	succCnt []int32 // succCnt[i]: number of task i's successors
}

var buildPool = sync.Pool{New: func() any { return &buildScratch{inc: NewIncremental()} }}

// Build runs the dependence analysis over the trace: one pass of
// Incremental.Preds collects every predecessor list and counts
// successors, then the Pred and Succ rows are carved out of two
// exactly sized backing arrays.
func Build(tr *trace.Trace) *Graph {
	n := len(tr.Tasks)
	s := buildPool.Get().(*buildScratch)
	s.inc.Reset()
	s.predBuf = s.predBuf[:0]
	s.predEnd = slices.Grow(s.predEnd[:0], n)[:n]
	s.succCnt = slices.Grow(s.succCnt[:0], n)[:n]
	clear(s.succCnt)

	g := &Graph{
		N:         n,
		Succ:      make([][]int32, n),
		Pred:      make([][]int32, n),
		Durations: make([]uint64, n),
	}
	for i := range tr.Tasks {
		g.Durations[i] = tr.Tasks[i].Duration
		preds := s.inc.Preds(int32(i), tr.Tasks[i].Deps)
		s.predBuf = append(s.predBuf, preds...)
		s.predEnd[i] = int32(len(s.predBuf))
		for _, p := range preds {
			s.succCnt[p]++
		}
	}

	// Row i of each array starts where row i-1 ends. Successor rows
	// start empty with room for exactly their successors, which are
	// appended in ascending task order.
	pred := slices.Clone(s.predBuf)
	succ := make([]int32, len(pred))
	var at int32
	for i, c := range s.succCnt {
		if c > 0 {
			g.Succ[i] = succ[at : at : at+c]
			at += c
		}
	}
	var lo int32
	for i, hi := range s.predEnd {
		if hi > lo {
			g.Pred[i] = pred[lo:hi:hi]
			for _, p := range g.Pred[i] {
				g.Succ[p] = append(g.Succ[p], int32(i))
			}
			lo = hi
		}
	}
	buildPool.Put(s)
	return g
}

// NumEdges returns the number of (deduplicated) dependence edges.
func (g *Graph) NumEdges() int {
	n := 0
	for _, p := range g.Pred {
		n += len(p)
	}
	return n
}

// Roots returns the tasks with no predecessors (ready at time zero).
func (g *Graph) Roots() []int32 {
	var roots []int32
	for i := 0; i < g.N; i++ {
		if len(g.Pred[i]) == 0 {
			roots = append(roots, int32(i))
		}
	}
	return roots
}

// CriticalPath returns the length in cycles of the longest
// duration-weighted path through the DAG — the execution time with
// unlimited workers and zero overhead.
func (g *Graph) CriticalPath() uint64 {
	var cp uint64
	for _, f := range g.asapFinish() {
		cp = max(cp, f)
	}
	return cp
}

// asapFinish returns each task's finish cycle under the ASAP schedule:
// unlimited workers, every task starting the moment its last
// predecessor finishes.
func (g *Graph) asapFinish() []uint64 {
	finish := make([]uint64, g.N)
	// Creation order is a topological order: every predecessor of task i
	// has index < i by construction.
	for i := range finish {
		for _, p := range g.Pred[i] {
			finish[i] = max(finish[i], finish[p])
		}
		finish[i] += g.Durations[i]
	}
	return finish
}

// BottomLevels returns, for each task, the duration-weighted length of
// the longest path from the task to any sink, the task's own duration
// included — the classic critical-path priority for list scheduling.
// Tasks deeper on the critical path get larger values.
func (g *Graph) BottomLevels() []uint64 {
	bl := make([]uint64, g.N)
	// Creation order is a topological order, so walking tasks backwards
	// visits every successor before its predecessors.
	for i := g.N - 1; i >= 0; i-- {
		var best uint64
		for _, s := range g.Succ[i] {
			if bl[s] > best {
				best = bl[s]
			}
		}
		bl[i] = best + g.Durations[i]
	}
	return bl
}

// MaxParallelism returns the maximum number of tasks simultaneously
// runnable under an ASAP (infinite workers) schedule, a measure of the
// "available parallelism" the paper's Figure 1 discusses.
func (g *Graph) MaxParallelism() int {
	type ev struct {
		t     uint64
		delta int
	}
	events := make([]ev, 0, 2*g.N)
	for i, f := range g.asapFinish() {
		events = append(events, ev{f - g.Durations[i], 1}, ev{f, -1})
	}
	slices.SortFunc(events, func(a, b ev) int {
		return cmp.Or(cmp.Compare(a.t, b.t), cmp.Compare(a.delta, b.delta)) // ends before starts
	})
	cur, maxp := 0, 0
	for _, e := range events {
		cur += e.delta
		if cur > maxp {
			maxp = cur
		}
	}
	return maxp
}

// CheckSchedule verifies that a simulated schedule is legal: every task
// ran (finish > start >= 0) and no task started before all its DAG
// predecessors finished. start/finish are in cycles, indexed by task.
func (g *Graph) CheckSchedule(start, finish []uint64) error {
	if len(start) != g.N || len(finish) != g.N {
		return fmt.Errorf("taskgraph: schedule length %d/%d, want %d", len(start), len(finish), g.N)
	}
	for i := 0; i < g.N; i++ {
		if finish[i] < start[i] {
			return fmt.Errorf("taskgraph: task %d finishes (%d) before it starts (%d)", i, finish[i], start[i])
		}
		if finish[i] == start[i] && g.Durations[i] > 0 {
			return fmt.Errorf("taskgraph: task %d has zero scheduled time but duration %d", i, g.Durations[i])
		}
		for _, p := range g.Pred[i] {
			if start[i] < finish[p] {
				return fmt.Errorf("taskgraph: task %d started at %d before predecessor %d finished at %d",
					i, start[i], p, finish[p])
			}
		}
	}
	return nil
}

// Levels returns, for each task, the length of the longest predecessor
// chain (root = 0). Useful for rendering the dependence graphs of
// Figure 7.
func (g *Graph) Levels() []int {
	lv := make([]int, g.N)
	for i := 0; i < g.N; i++ {
		for _, p := range g.Pred[i] {
			if lv[p]+1 > lv[i] {
				lv[i] = lv[p] + 1
			}
		}
	}
	return lv
}

// Depth returns the number of levels in the DAG (longest chain, in tasks).
func (g *Graph) Depth() int {
	max := 0
	for _, l := range g.Levels() {
		if l+1 > max {
			max = l + 1
		}
	}
	return max
}
