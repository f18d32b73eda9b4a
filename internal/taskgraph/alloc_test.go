//go:build !race

// Allocation lock for the dependence analysis. The race detector
// changes allocation behaviour, so this only builds without it.

package taskgraph

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/synth"
)

// buildAllocs is what a warm Build allocates: the Graph, its Pred, Succ
// and Durations arrays, and the two edge arrays the rows are carved
// from. The analysis state is pooled, so the count does not grow with
// the trace.
const buildAllocs = 6

// TestBuildAllocsConstant locks Build to the same constant number of
// allocations on a 100-task and an ~11k-task trace.
func TestBuildAllocsConstant(t *testing.T) {
	small, err := synth.Case(4)
	if err != nil {
		t.Fatal(err)
	}
	large, err := apps.Generate(apps.SparseLu, 2048, 32)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		tasks int
		run   func()
	}{
		{"case4", len(small.Tasks), func() { Build(small) }},
		{"sparselu/32", len(large.Trace.Tasks), func() { Build(large.Trace) }},
	} {
		tc.run() // warm the pooled analysis state
		if got := testing.AllocsPerRun(20, tc.run); got != buildAllocs {
			t.Errorf("%s (%d tasks): warm Build allocates %.1f times; lock is %d", tc.name, tc.tasks, got, buildAllocs)
		}
	}
}
