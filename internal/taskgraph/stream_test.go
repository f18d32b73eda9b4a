package taskgraph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/apps"
	"repro/internal/synth"
	"repro/internal/trace"
)

// bruteForcePreds is the reference dependence analysis, written straight
// from the OmpSs rules in the package doc and sharing no code or state
// with Incremental. For every dependence of task i it scans the earlier
// tasks backwards: a task that writes the address is its last writer —
// a predecessor by RAW if i reads the address and by WAW if i writes it
// — and ends the scan; a task that only reads the address since that
// writer is a predecessor by WAR if i writes it. O(n^2) over the trace.
func bruteForcePreds(tr *trace.Trace) [][]int32 {
	preds := make([][]int32, len(tr.Tasks))
	for i, task := range tr.Tasks {
		var p []int32
		for _, d := range task.Deps {
		scan:
			for j := i - 1; j >= 0; j-- {
				for _, e := range tr.Tasks[j].Deps {
					if e.Addr != d.Addr {
						continue
					}
					if e.Dir.Writes() {
						if d.Dir.Reads() || d.Dir.Writes() { // RAW, WAW
							p = append(p, int32(j))
						}
						break scan
					}
					if d.Dir.Writes() { // WAR
						p = append(p, int32(j))
					}
				}
			}
		}
		slices.Sort(p)
		preds[i] = slices.Compact(p)
	}
	return preds
}

// checkOracle compares Build's graph with the brute-force reference:
// identical Pred rows, and Succ rows that are exactly their transpose.
func checkOracle(t *testing.T, name string, tr *trace.Trace) {
	t.Helper()
	g := Build(tr)
	want := bruteForcePreds(tr)
	succ := make([][]int32, len(tr.Tasks))
	for i, p := range want {
		if !slices.Equal(g.Pred[i], p) {
			t.Fatalf("%s task %d: Build preds %v, brute force %v", name, i, g.Pred[i], p)
		}
		for _, q := range p {
			succ[q] = append(succ[q], int32(i))
		}
	}
	for i, s := range succ {
		if !slices.Equal(g.Succ[i], s) {
			t.Fatalf("%s task %d: Build succs %v, brute force %v", name, i, g.Succ[i], s)
		}
	}
}

// propertyGraphs replays the 200 seeded random graphs of the engine
// property suite (TestRandomGraphProperties in internal/sim): the same
// seed, the same generator and the same per-graph worker-count draw, so
// the oracle sees exactly the graphs the engines are checked on.
func propertyGraphs() []*trace.Trace {
	r := rand.New(rand.NewSource(0x9105))
	var out []*trace.Trace
	for idx := 0; idx < 200; idx++ {
		nTasks := 10 + r.Intn(70)
		nAddrs := 4 + r.Intn(24)
		addrs := make([]uint64, nAddrs)
		for i := range addrs {
			addrs[i] = uint64(r.Intn(1<<20)) << 7
		}
		tr := &trace.Trace{Name: fmt.Sprintf("random-%d", idx)}
		for id := 0; id < nTasks; id++ {
			nDeps := min(r.Intn(trace.MaxDeps+1), nAddrs)
			perm := r.Perm(nAddrs)[:nDeps]
			task := trace.Task{ID: uint32(id), Duration: 1 + uint64(r.Intn(2000))}
			for _, ai := range perm {
				task.Deps = append(task.Deps, trace.Dep{Addr: addrs[ai], Dir: trace.Direction(r.Intn(3))})
			}
			tr.Tasks = append(tr.Tasks, task)
		}
		if idx%2 == 1 { // kind draws: irrelevant to dependences, kept for the stream
			for range tr.Tasks {
				if r.Intn(4) > 0 {
					r.Intn(3)
				}
			}
		}
		r.Intn(16) // the suite's worker count
		out = append(out, tr)
	}
	return out
}

// TestBuildMatchesBruteForce checks Build against the independent
// brute-force reference on every application trace at two block sizes,
// the synthetic cases, this package's random traces and the property
// suite's 200 seeded graphs.
func TestBuildMatchesBruteForce(t *testing.T) {
	for _, app := range append(slices.Clone(apps.Apps), apps.MLu) {
		problem, blocks := 1024, []int{128, 64}
		if app == apps.H264Dec {
			problem, blocks = 1, []int{8, 4} // one frame, two macroblock groupings
		}
		for _, block := range blocks {
			res, err := apps.Generate(app, problem, block)
			if err != nil {
				t.Fatal(err)
			}
			checkOracle(t, fmt.Sprintf("%s/%d", app, block), res.Trace)
		}
	}
	for n := 1; n <= 7; n++ {
		tr, err := synth.Case(n)
		if err != nil {
			t.Fatal(err)
		}
		checkOracle(t, fmt.Sprintf("case%d", n), tr)
	}
	for seed := int64(0); seed < 20; seed++ {
		checkOracle(t, fmt.Sprintf("rand-%d", seed), randomTrace(seed, 60))
	}
	for _, tr := range propertyGraphs() {
		if err := tr.Validate(); err != nil {
			t.Fatalf("%s: %v", tr.Name, err)
		}
		checkOracle(t, tr.Name, tr)
	}
}

// TestIncrementalMatchesBuild checks that a fresh Incremental fed a
// trace task by task reproduces Build's Pred lists entry for entry —
// same edges, same dedup, same ascending order. Build is a fold of
// Incremental over a pooled analysis, so this pins the fold (row
// carving, pooled-state reuse across Builds) rather than the rules,
// which TestBuildMatchesBruteForce checks independently.
func TestIncrementalMatchesBuild(t *testing.T) {
	var traces []*trace.Trace
	for n := 1; n <= 7; n++ {
		tr, err := synth.Case(n)
		if err != nil {
			t.Fatal(err)
		}
		traces = append(traces, tr)
	}
	for _, app := range []apps.App{apps.Cholesky, apps.SparseLu} {
		res, err := apps.Generate(app, 1024, 128)
		if err != nil {
			t.Fatal(err)
		}
		traces = append(traces, res.Trace)
	}

	inc := NewIncremental()
	for _, tr := range traces {
		g := Build(tr)
		inc.Reset()
		for i := range tr.Tasks {
			got := inc.Preds(int32(i), tr.Tasks[i].Deps)
			want := g.Pred[i]
			if len(got) != len(want) {
				t.Fatalf("%s task %d: preds %v, want %v", tr.Name, i, got, want)
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("%s task %d: preds %v, want %v", tr.Name, i, got, want)
				}
			}
		}
	}
}

// TestIncrementalReset checks that a reused analysis carries no address
// state across Reset: the same trace analyzed twice gives the same
// answer both times.
func TestIncrementalReset(t *testing.T) {
	tr, err := synth.Case(4)
	if err != nil {
		t.Fatal(err)
	}
	inc := NewIncremental()
	var firstRun [][]int32
	for i := range tr.Tasks {
		p := inc.Preds(int32(i), tr.Tasks[i].Deps)
		firstRun = append(firstRun, append([]int32(nil), p...))
	}
	inc.Reset()
	for i := range tr.Tasks {
		got := inc.Preds(int32(i), tr.Tasks[i].Deps)
		want := firstRun[i]
		if len(got) != len(want) {
			t.Fatalf("task %d after Reset: preds %v, want %v", i, got, want)
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("task %d after Reset: preds %v, want %v", i, got, want)
			}
		}
	}
}
