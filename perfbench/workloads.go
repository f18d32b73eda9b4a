package main

import (
	"fmt"
	"strings"

	"repro/internal/sim"
)

// op is one simulation driven through the public sim surface. A
// materialized op makes the calls sim.Run plus picos-sim -verify make
// (BuildWorkload, RunTrace, Verify); a streamed op makes the calls of a
// windowed run (BuildWorkloadSource, RunSource) and is never verified
// against the whole-graph oracle, which a stream does not have.
type op struct {
	label  string
	spec   sim.Spec
	stream bool
}

// workload is one named list of ops. Only pattern workloads depend on
// the seed (their seed= and jitter parameters); the benchmark seed also
// permutes the op order of every pass.
type workload struct {
	name string
	ops  func(seed uint64) []op
}

var workloads = []workload{
	{"accel-sweep", accelSweep},
	{"sw-granularity", swGranularity},
	{"stream-window", streamWindow},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// accelSweep is the Table II / Fig 8 grid at each application's fine
// block size: the three DM designs at 4 and 12 workers on picos-hw, plus
// a picos-full lane. The hil loop and the picos core take most of the
// op time; the 8way columns carry the conflict-stall retries and p8way
// nearly bypasses them.
func accelSweep(uint64) []op {
	traces := []struct {
		app   string
		block int
	}{{"heat", 64}, {"cholesky", 128}, {"lu", 32}, {"mlu", 32}, {"sparselu", 64}}
	var ops []op
	for _, tr := range traces {
		for _, design := range []string{"8way", "16way", "p8way"} {
			for _, workers := range []int{4, 12} {
				ops = append(ops, op{
					label: fmt.Sprintf("picos-hw %s/%d %s w%d", tr.app, tr.block, design, workers),
					spec:  sim.Spec{Engine: "picos-hw", Workload: tr.app, Block: tr.block, Design: design, Workers: workers},
				})
			}
		}
		ops = append(ops, op{
			label: fmt.Sprintf("picos-full %s/%d w12", tr.app, tr.block),
			spec:  sim.Spec{Engine: "picos-full", Workload: tr.app, Block: tr.block, Workers: 12},
		})
	}
	return ops
}

// swGranularity is the Fig 1 / Table I grid on the software runtime and
// the perfect roofline: every op generates its own application trace and
// verifies its schedule, so the generators and taskgraph dominate
// beside nanos and perfect. No accelerator code runs.
func swGranularity(uint64) []op {
	type app struct {
		name   string
		blocks []int
	}
	apps := []app{
		{"heat", []int{256, 128, 64, 32}},
		{"lu", []int{256, 128, 64, 32}},
		{"sparselu", []int{256, 128, 64, 32}},
		{"cholesky", []int{256, 128, 64, 32}},
		{"h264dec", []int{8, 4, 2}},
	}
	var ops []op
	for _, a := range apps {
		for _, block := range a.blocks {
			for _, engine := range []string{"nanos", "perfect"} {
				ops = append(ops, op{
					label: fmt.Sprintf("%s %s/%d", engine, a.name, block),
					spec:  sim.Spec{Engine: engine, Workload: a.name, Block: block},
				})
			}
		}
	}
	return ops
}

// streamWindow is task-bench pattern families streamed under a
// 256-descriptor window on picos-full and nanos, half of them on a
// heterogeneous fast/slow worker mix with stealing. Generation is lazy
// inside the engine runs; nothing is materialized or verified.
func streamWindow(seed uint64) []op {
	families := []string{
		"stencil_1d?width=64&steps=16",
		"nearest?width=64&steps=24&k=5",
		"spread?width=64&steps=32&k=4",
		"random_nearest?width=64&steps=48&k=3",
		"fft?width=64&steps=64",
		"tree?width=64&steps=96",
		"dom?width=32&steps=96",
		"wavefront?width=16&height=8&steps=64",
	}
	const window = 256
	const mix = "4xfast+8xslow:3.0"
	var ops []op
	for _, fam := range families {
		wl := fmt.Sprintf("pattern:%s&jitter=20&seed=%d", fam, seed)
		for _, engine := range []string{"picos-full", "nanos"} {
			ops = append(ops,
				op{
					label:  fmt.Sprintf("%s %s w12", engine, wl),
					spec:   sim.Spec{Engine: engine, Workload: wl, Workers: 12, Window: window},
					stream: true,
				},
				op{
					label:  fmt.Sprintf("%s %s %s steal", engine, wl, mix),
					spec:   sim.Spec{Engine: engine, Workload: wl, WorkerClasses: mix, Steal: true, Window: window},
					stream: true,
				})
		}
	}
	return ops
}
