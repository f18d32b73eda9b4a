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
// heaps, the horizon keys) is pool-reused. Headroom covers pool misses
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

// maxStreamAllocsPerTask bounds a warm windowed sim.RunSource, per
// task pulled off the stream. The live windows are slot tables whose
// slabs stop growing at the window, the ready pool skips empty-queue
// grants, and the pattern generator carves every task's dependences
// out of a shared chunk, so what remains is one chunk per ~1k
// dependences plus the Result and a few per-run slices.
const maxStreamAllocsPerTask = 0.01

// TestWarmStreamAllocs locks the streamed path's allocation rate: a
// 16k-task pattern stream replayed under a 256-descriptor window, on
// picos-full with a fast/slow class mix and stealing (the Pool.Grant
// path) and on nanos.
func TestWarmStreamAllocs(t *testing.T) {
	const (
		workload = "pattern:stencil_1d?width=128&steps=128&jitter=20"
		tasks    = 128 * 128
	)
	for _, spec := range []sim.Spec{
		{Engine: "picos-full", Workload: workload, WorkerClasses: "4xfast+8xslow:3.0", Steal: true, Window: 256},
		{Engine: "nanos", Workload: workload, Workers: 12, Window: 256},
	} {
		src, err := sim.BuildWorkloadSource(spec)
		if err != nil {
			t.Fatal(err)
		}
		run := func() {
			if _, err := sim.RunSource(src, spec); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the engine pools, slabs and scratch
		run()
		if avg := testing.AllocsPerRun(3, run) / tasks; avg > maxStreamAllocsPerTask {
			t.Errorf("warm streamed %s allocates %.4f times per task; lock is %.2f", spec.Engine, avg, maxStreamAllocsPerTask)
		}
	}
}
