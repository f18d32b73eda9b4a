package main

import (
	"encoding/json"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func TestTamperedDigestFails(t *testing.T) {
	pins, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	o := accelSweep(defaultSeed)[0]
	out := execute(o, nil)
	if err := check(o, out, pins, true); err != nil {
		t.Fatalf("untampered %s: %v", o.label, err)
	}
	tampered := maps.Clone(pins)
	p := tampered[o.label]
	p.Digest = "0000000000000000"
	tampered[o.label] = p
	err = check(o, out, tampered, true)
	if err == nil || !strings.Contains(err.Error(), "digest") {
		t.Fatalf("tampered digest of %s: got %v, want a digest mismatch", o.label, err)
	}

	r := &runner{pins: tampered, requirePin: true, log: io.Discard}
	r.do(o, nil)
	if r.attempted != 1 || r.failed != 1 {
		t.Fatalf("tampered op counted as attempted %d, failed %d; want 1, 1", r.attempted, r.failed)
	}
}

func TestPercentileRefusesShortSample(t *testing.T) {
	sample := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	if _, err := percentile(sample(99), 9, 10); err == nil {
		t.Fatal("p90 of 99 samples (9 beyond) was not refused")
	}
	got, err := percentile(sample(100), 9, 10)
	if err != nil {
		t.Fatalf("p90 of 100 samples: %v", err)
	}
	if got != 90 {
		t.Fatalf("p90 of 1..100 = %v, want 90 (ten samples beyond)", got)
	}
	if _, err := percentile(sample(20), 1, 2); err != nil {
		t.Fatalf("p50 of 20 samples: %v", err)
	}
	if _, err := percentile(sample(19), 1, 2); err == nil {
		t.Fatal("p50 of 19 samples (9 beyond) was not refused")
	}
}

// TestPrintedMetricsAreDeclared runs every workload briefly in both modes
// at the default seed: every op must pass its checks, and the metric
// names printed must be exactly the ones BENCHMARK.json declares.
func TestPrintedMetricsAreDeclared(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	declared := func(ms []struct{ Name, Unit string }) map[string]string {
		out := map[string]string{}
		for _, m := range ms {
			out[m.Name] = m.Unit
		}
		return out
	}
	want := map[bool]map[string]string{false: declared(bench.EndToEnd), true: declared(bench.PerLayer)}

	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	for _, w := range workloads {
		if !slices.Contains(names, w.name) {
			t.Errorf("workload %s is not declared in BENCHMARK.json", w.name)
		}
	}
	for _, name := range names {
		for _, traced := range []bool{false, true} {
			rep, err := run(config{
				workload: name, seed: defaultSeed, trace: traced,
				spans: filepath.Join(t.TempDir(), "spans.json"),
			}, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, traced, rep.Correct, rep.Attempted, rep.Failed)
			}
			for m, v := range rep.Metrics {
				if unit, ok := want[traced][m]; !ok || unit != v.Unit {
					t.Errorf("%s trace=%v prints %s (%s), not declared with that unit", name, traced, m, v.Unit)
				}
			}
			for m := range want[traced] {
				if _, ok := rep.Metrics[m]; !ok {
					t.Errorf("%s trace=%v does not print declared metric %s", name, traced, m)
				}
			}
		}
	}
}

// TestNonDefaultSeedPasses runs every op once at a held-out seed: the
// accounting and oracle checks hold, and the ops whose workload does not
// depend on the seed still match their pinned digests.
func TestNonDefaultSeedPasses(t *testing.T) {
	pins, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	const seed = 7
	for _, w := range workloads {
		r := &runner{pins: pins, log: io.Discard}
		pinned := 0
		for _, o := range w.ops(seed) {
			if _, ok := pins[o.label]; ok {
				pinned++
			}
			if out := r.do(o, nil); out.err != nil {
				t.Errorf("%s seed %d: %s: %v", w.name, seed, o.label, out.err)
			}
		}
		if w.name != "stream-window" && pinned != r.attempted {
			t.Errorf("%s seed %d: %d of %d ops checked against a pinned digest", w.name, seed, pinned, r.attempted)
		}
	}
}
