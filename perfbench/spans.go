package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// Span names: one per layer the benchmark calls into, plus the op span
// around them. The engine layer of an op is named by engineLayer.
const (
	layerOp     = "bench.op"
	layerBuild  = "sim.build"
	layerVerify = "taskgraph.verify"
)

// engineLayer names the layer an engine runs in: the Picos engines are
// the HIL platform driving the picos core ("hil.picos-hw"), the others
// are their own package ("nanos", "perfect").
func engineLayer(engine string) string {
	if strings.HasPrefix(engine, "picos-") {
		return "hil." + engine
	}
	return engine
}

// span is one timed call into a layer, with the heap allocations made
// during it and the simulated work it covered.
type span struct {
	name          string
	op            string
	start, dur    time.Duration
	allocs, bytes uint64
	tasks, deps   int
}

// tracer keeps spans in memory for the traced run. Spans nest only one
// level: an op span around the layer spans of that op, which run one
// after another. Methods on a nil tracer record nothing, so the untraced
// run pays no tracing cost.
type tracer struct {
	origin time.Time
	op     string
	spans  []span
	ms     runtime.MemStats
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// beginOp opens the span of one op; the layer spans opened until its end
// are its children.
func (t *tracer) beginOp(label string) int {
	if t == nil {
		return -1
	}
	t.op = label
	return t.begin(layerOp)
}

func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	runtime.ReadMemStats(&t.ms)
	t.spans = append(t.spans, span{name: name, op: t.op, allocs: t.ms.Mallocs, bytes: t.ms.TotalAlloc})
	i := len(t.spans) - 1
	t.spans[i].start = time.Since(t.origin)
	return i
}

func (t *tracer) end(i, tasks, deps int) {
	if t == nil {
		return
	}
	now := time.Since(t.origin)
	runtime.ReadMemStats(&t.ms)
	s := &t.spans[i]
	s.dur = now - s.start
	s.allocs = t.ms.Mallocs - s.allocs
	s.bytes = t.ms.TotalAlloc - s.bytes
	s.tasks, s.deps = tasks, deps
}

// layerTotals sums the spans of one layer.
type layerTotals struct {
	ns, allocs, tasks, deps float64
}

// layers sums the spans by layer name. The op spans' total is returned
// under layerOp; since layer spans never nest, each layer's self time is
// its span time, and the op spans' self time (the benchmark's own share)
// is their total minus every layer's.
func (t *tracer) layers() map[string]*layerTotals {
	out := map[string]*layerTotals{}
	for _, s := range t.spans {
		l := out[s.name]
		if l == nil {
			l = &layerTotals{}
			out[s.name] = l
		}
		l.ns += float64(s.dur.Nanoseconds())
		l.allocs += float64(s.allocs)
		l.tasks += float64(s.tasks)
		l.deps += float64(s.deps)
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON, which
// Perfetto and chrome://tracing open.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		events = append(events, event{
			Name: s.name, Ph: "X", Pid: 1, Tid: 1,
			Ts:  float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64(s.dur.Nanoseconds()) / 1e3,
			Args: map[string]any{
				"op": s.op, "tasks": s.tasks, "deps": s.deps,
				"allocs": s.allocs, "bytes": s.bytes,
			},
		})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
