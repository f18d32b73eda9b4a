// Command perfbench measures the host performance of the Picos simulator
// on a named workload of simulation ops and checks every op's output.
// See README.md for the workloads, the metrics and how to run it.
//
//	go run . -workload accel-sweep -seed 1 -seconds 35 -trace 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"time"

	"repro/internal/sim"
)

const (
	// coldSetups is how many cold set-ups an untraced run times: its own
	// and, after its timed passes, those of coldSetups-1 fresh processes
	// that stop where their first timed op would start. setup_s is the
	// median.
	coldSetups = 7
	// minOps keeps an untraced run going until its p90 has minBeyond
	// samples beyond it.
	minOps = 10 * minBeyond
)

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	spans    string    // span file of the traced run
	entry    time.Time // benchmark entry, where setup_s starts
	// setupOnly stops the run after its set-up and reports setup_s
	// alone.
	setupOnly bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line the benchmark prints last.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	entry := time.Now()
	// One P for one client: the simulator is single-threaded, so the
	// collector then runs on the op's own CPU and its work counts in op
	// time. With a second P its idle mark worker runs there, and how much
	// CPU a shared host lends that P moves the live heap a GC sees.
	runtime.GOMAXPROCS(1)
	workload := flag.String("workload", "", "workload: accel-sweep, sw-granularity or stream-window")
	seed := flag.Uint64("seed", defaultSeed, "seed: permutes op order and seeds the pattern families")
	seconds := flag.Float64("seconds", 10, "host seconds to measure")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	spans := flag.String("spans", "", "span file of the traced run (default .bench_build/perfbench-spans-<workload>-<seed>.json)")
	pinPath := flag.String("pin", "", "run every op at the default seed, write their digests to this file and exit")
	setupOnly := flag.Bool("setup-only", false, "set up (op list and warm-up pass), report setup_s and exit")
	flag.Parse()

	if *pinPath != "" {
		if err := writePins(*pinPath); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	if *spans == "" {
		*spans = filepath.Join(".bench_build", fmt.Sprintf("perfbench-spans-%s-%d.json", *workload, *seed))
	}
	rep, err := run(config{
		workload: *workload, seed: *seed, seconds: *seconds,
		trace: *traced == 1, spans: *spans, entry: entry, setupOnly: *setupOnly,
	}, os.Stderr)
	if err == nil && *traced == 0 && !*setupOnly {
		err = addColdSetups(&rep, *workload, *seed)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	names := make([]string, 0, len(rep.Metrics))
	for name := range rep.Metrics {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		m := rep.Metrics[name]
		fmt.Printf("%-36s %14.6g %s\n", name, m.Value, m.Unit)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// addColdSetups times coldSetups-1 more cold set-ups, each in a fresh
// process of this binary, and sets rep's setup_s to the median of them and
// the run's own.
func addColdSetups(rep *report, workload string, seed uint64) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	setups := []float64{rep.Metrics["setup_s"].Value}
	for len(setups) < coldSetups {
		cmd := exec.Command(self, "-setup-only", "-workload", workload, "-seed", fmt.Sprint(seed))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("cold set-up: %w", err)
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var child report
		if err := json.Unmarshal(lines[len(lines)-1], &child); err != nil {
			return fmt.Errorf("cold set-up: %w", err)
		}
		setups = append(setups, child.Metrics["setup_s"].Value)
	}
	rep.Metrics["setup_s"] = metric{median(setups), "s"}
	return nil
}

func writePins(path string) error {
	pins, err := pinAll()
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false) // labels hold pattern queries with '&'
	enc.SetIndent("", "  ")
	if err := enc.Encode(pins); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// runner drives ops as a closed loop from a single client: the next op
// starts when the previous one returns.
type runner struct {
	ops        []op
	pins       map[string]pin
	requirePin bool
	rng        *rand.Rand
	log        io.Writer

	attempted, failed int
}

// do runs and checks one op inside its op span.
func (r *runner) do(o op, tr *tracer) outcome {
	i := tr.beginOp(o.label)
	out := execute(o, tr)
	err := check(o, out, r.pins, r.requirePin)
	tr.end(i, out.tasks, 0)
	r.attempted++
	if err != nil {
		r.failed++
		out.err = err
		fmt.Fprintf(r.log, "FAIL %s: %v\n", o.label, err)
	}
	return out
}

// phase is what one timed phase measured. A phase runs whole passes over
// the op list, each in a fresh seeded order, so every pass does the same
// work.
type phase struct {
	passRate       []float64 // simulated tasks per host second, per pass
	passPeak       []float64 // highest post-GC live heap between ops, MB, per pass
	latMs          []float64 // host ms per op
	tasks          int
	mallocs, bytes uint64
	gcCPU, usedCPU float64  // CPU seconds of GC and of all but idle
	sums           counters // of the first pass
}

// measure runs passes until budget has elapsed and at least minimum ops
// ran.
func (r *runner) measure(budget time.Duration, minimum int, tr *tracer) phase {
	var p phase
	cpu := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	metrics.Read(cpu)
	gc0, used0 := cpu[0].Value.Float64(), cpu[1].Value.Float64()-cpu[2].Value.Float64()

	order := slices.Clone(r.ops)
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < budget || len(p.latMs) < minimum; pass++ {
		r.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		passStart, tasks, peak := time.Now(), 0, uint64(0)
		for _, o := range order {
			t0 := time.Now()
			out := r.do(o, tr)
			p.latMs = append(p.latMs, float64(time.Since(t0).Nanoseconds())/1e6)
			tasks += out.tasks
			if pass == 0 {
				p.sums.add(o, out.res)
			}
			metrics.Read(live)
			peak = max(peak, live[0].Value.Uint64())
		}
		p.passRate = append(p.passRate, float64(tasks)/time.Since(passStart).Seconds())
		p.passPeak = append(p.passPeak, float64(peak)/(1<<20))
		p.tasks += tasks
	}

	runtime.ReadMemStats(&m1)
	metrics.Read(cpu)
	p.mallocs, p.bytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	p.gcCPU = cpu[0].Value.Float64() - gc0
	p.usedCPU = cpu[1].Value.Float64() - cpu[2].Value.Float64() - used0
	return p
}

// counters sums the deterministic simulated statistics of one pass.
type counters struct {
	deps, conflicts, conflictStall, gwBlocked, vmStall, wakes uint64
	lockBusy, nanosMakespan, makespan                         uint64
	wedged                                                    int
}

func (c *counters) add(o op, res *sim.Result) {
	if res == nil {
		return
	}
	c.makespan += res.Makespan
	if res.Wedged {
		c.wedged++
	}
	if o.spec.Engine == "nanos" {
		c.lockBusy += res.LockBusy
		c.nanosMakespan += res.Makespan
	}
	if st := res.Stats; st != nil {
		c.deps += st.DepsProcessed
		c.conflicts += st.DMConflicts
		c.conflictStall += st.DMConflictStallCycles
		c.gwBlocked += st.GWBlockedCycles
		c.vmStall += st.VMStallCycles
		c.wakes += st.WakesRouted
	}
}

// ratio returns a/b, or 0 when b is 0 (a layer the workload never runs).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func run(cfg config, log io.Writer) (report, error) {
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return report{}, err
	}
	pins, err := loadPins()
	if err != nil {
		return report{}, err
	}
	r := &runner{
		pins:       pins,
		requirePin: cfg.seed == defaultSeed,
		rng:        rand.New(rand.NewPCG(cfg.seed, 0x9e3779b97f4a7c15)),
		log:        log,
	}

	// Set-up, timed from the benchmark's entry: build the op list and run
	// one warm-up pass, which grows the heap and fills any cache the
	// program keeps across ops.
	t0 := cfg.entry
	if t0.IsZero() {
		t0 = time.Now()
	}
	r.ops = w.ops(cfg.seed)
	for _, o := range r.ops {
		r.do(o, nil)
	}
	setup := time.Since(t0).Seconds()

	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	if cfg.setupOnly {
		put("setup_s", setup, "s")
		return report{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: m}, nil
	}

	budget := time.Duration(cfg.seconds * float64(time.Second))
	if !cfg.trace {
		p := r.measure(budget, minOps, nil)
		slices.Sort(p.latMs)
		p50, err := percentile(p.latMs, 1, 2)
		if err != nil {
			return report{}, err
		}
		p90, err := percentile(p.latMs, 9, 10)
		if err != nil {
			return report{}, err
		}
		tasks := float64(p.tasks)
		put("tasks_per_s", median(p.passRate), "1/s")
		put("op_ms_p50", p50, "ms")
		put("op_ms_p90", p90, "ms")
		put("allocs_per_task", ratio(float64(p.mallocs), tasks), "count")
		put("alloc_bytes_per_task", ratio(float64(p.bytes), tasks), "B")
		put("peak_heap_mb", median(p.passPeak), "MB")
		put("setup_s", setup, "s")
		fmt.Fprintf(log, "%s seed %d: %d ops in %d passes of %d\n", w.name, cfg.seed, len(p.latMs), len(p.passRate), len(r.ops))
	} else {
		plain := r.measure(budget/2, 0, nil)
		tr := newTracer()
		traced := r.measure(budget/2, 0, tr)
		if err := tr.writeChrome(cfg.spans); err != nil {
			return report{}, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(log, "spans: %s\n", cfg.spans)
		plainRate, tracedRate := median(plain.passRate), median(traced.passRate)
		layerMetrics(put, tr.layers(), traced.sums)
		put("runtime.gc_cpu_frac", ratio(plain.gcCPU, plain.usedCPU), "frac")
		put("trace.overhead_frac", ratio(plainRate-tracedRate, plainRate), "frac")
		put("failed_frac", ratio(float64(r.failed), float64(r.attempted)), "frac")
	}
	return report{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: m}, nil
}

// layerMetrics derives the per-layer metrics of a traced phase: host
// time and allocations per simulated task in each layer, each layer's
// share of op time, and the deterministic simulated counters of one
// pass.
func layerMetrics(put func(string, float64, string), ls map[string]*layerTotals, c counters) {
	get := func(name string) *layerTotals {
		if l := ls[name]; l != nil {
			return l
		}
		return &layerTotals{}
	}
	ops := get(layerOp)
	self := ops.ns
	for _, name := range []string{layerBuild, layerVerify, "hil.picos-hw", "hil.picos-full", "nanos", "perfect"} {
		self -= get(name).ns
	}
	put("bench.self_share", ratio(self, ops.ns), "frac")

	build := get(layerBuild)
	put("sim.build.ns_per_task", ratio(build.ns, ops.tasks), "ns")
	put("sim.build.allocs_per_task", ratio(build.allocs, ops.tasks), "count")
	put("sim.build.share", ratio(build.ns, ops.ns), "frac")
	verify := get(layerVerify)
	put("taskgraph.verify.ns_per_task", ratio(verify.ns, verify.tasks), "ns")
	put("taskgraph.verify.allocs_per_task", ratio(verify.allocs, verify.tasks), "count")
	put("taskgraph.share", ratio(verify.ns, ops.ns), "frac")
	for _, name := range []string{"hil.picos-hw", "hil.picos-full", "nanos", "perfect"} {
		l := get(name)
		put(name+".ns_per_task", ratio(l.ns, l.tasks), "ns")
		put(name+".allocs_per_task", ratio(l.allocs, l.tasks), "count")
		put(name+".share", ratio(l.ns, ops.ns), "frac")
	}
	hw := get("hil.picos-hw")
	put("hil.picos-hw.ns_per_dep", ratio(hw.ns, hw.deps), "ns")

	put("picos.deps_processed", float64(c.deps), "count")
	put("picos.dm_conflicts", float64(c.conflicts), "count")
	put("picos.dm_conflict_ratio", ratio(float64(c.conflicts), float64(c.deps)), "frac")
	put("picos.dm_conflict_stall_cycles", float64(c.conflictStall), "cycles")
	put("picos.gw_blocked_cycles", float64(c.gwBlocked), "cycles")
	put("picos.vm_stall_cycles", float64(c.vmStall), "cycles")
	put("picos.wakes_routed", float64(c.wakes), "count")
	put("nanos.lock_busy_frac", ratio(float64(c.lockBusy), float64(c.nanosMakespan)), "frac")
	put("sim.makespan_mcycles", float64(c.makespan)/1e6, "Mcycles")
	put("sim.wedged_ops", float64(c.wedged), "count")
}
