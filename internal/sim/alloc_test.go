//go:build !race

// Allocation-regression lock for the warm sweep hot path. The race
// detector changes allocation behaviour, so this only builds without it.

package sim_test

import (
	"testing"

	"repro/internal/sim"

	_ "repro/internal/engines"
)

// maxWarmRunTraceAllocs bounds a warm sim.RunTrace iteration on a
// pooled Picos engine. The steady-state cost is only what escapes into
// the Result — the start/finish/order schedule arrays, the Result and
// stats values, and the per-unit busy snapshot — roughly ten
// allocations; everything else (accelerator memories, FIFOs, worker
// heaps, the horizon heap) is pool-reused. Headroom covers pool misses
// when a GC lands mid-measurement.
const maxWarmRunTraceAllocs = 24

// TestWarmRunTraceAllocs locks the steady-state allocation count of a
// warm sweep iteration: build the trace once, then re-run it through
// the pooled engine as Sweep does per grid point.
func TestWarmRunTraceAllocs(t *testing.T) {
	spec := sim.Spec{Engine: "picos-hw", Workload: "case2"}.WithDefaults()
	tr, err := sim.BuildWorkload(spec)
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		if _, err := sim.RunTrace(tr, spec); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the engine pool and grow every buffer to steady state
	run()
	if avg := testing.AllocsPerRun(50, run); avg > maxWarmRunTraceAllocs {
		t.Errorf("warm RunTrace allocates %.1f times per run; lock is %d", avg, maxWarmRunTraceAllocs)
	}
}

// maxWarmSoftwareAllocs bounds a warm sim.RunTrace iteration on the
// software-runtime and roofline engines, whatever the task count: the
// dependence graph (a constant number of arrays), the Result and its
// Start/Finish schedule, and the few per-run slices sized by the kind
// table or worker count. The event queues and per-task bookkeeping are
// pool-reused.
const maxWarmSoftwareAllocs = 24

// TestWarmSoftwareRunTraceAllocs locks the steady-state allocation
// count of nanos and perfect runs to a bound independent of the trace
// size: a 100-task synthetic case and an ~11k-task application trace
// must both stay under it.
func TestWarmSoftwareRunTraceAllocs(t *testing.T) {
	for _, wl := range []struct {
		workload string
		block    int
	}{{"case4", 0}, {"sparselu", 32}} {
		for _, engine := range []string{"nanos", "perfect"} {
			spec := sim.Spec{Engine: engine, Workload: wl.workload, Block: wl.block}.WithDefaults()
			tr, err := sim.BuildWorkload(spec)
			if err != nil {
				t.Fatal(err)
			}
			run := func() {
				if _, err := sim.RunTrace(tr, spec); err != nil {
					t.Fatal(err)
				}
			}
			run() // warm the engine and analysis pools
			run()
			if avg := testing.AllocsPerRun(10, run); avg > maxWarmSoftwareAllocs {
				t.Errorf("warm %s RunTrace on %s (%d tasks) allocates %.1f times per run; lock is %d",
					engine, wl.workload, len(tr.Tasks), avg, maxWarmSoftwareAllocs)
			}
		}
	}
}
