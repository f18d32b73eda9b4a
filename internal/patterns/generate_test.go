package patterns

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/trace"
)

// gridShapes gives every grid family a small spec prefix: pow2 widths
// for fft, a width past MaxDeps so dom and all_to_all truncate, and a
// Width x Height grid for the 2-D families.
var gridShapes = map[string]string{
	"trivial":             "width=16&steps=6",
	"no_comm":             "width=16&steps=6",
	"stencil_1d":          "width=16&steps=6",
	"stencil_1d_periodic": "width=16&steps=6",
	"nearest":             "width=16&steps=6&k=5",
	"spread":              "width=16&steps=6&k=4",
	"random_nearest":      "width=16&steps=6&k=3",
	"fft":                 "width=16&steps=6",
	"tree":                "width=16&steps=6",
	"dom":                 "width=20&steps=6",
	"all_to_all":          "width=20&steps=6",
	"stencil_2d":          "width=4&height=3&steps=6",
	"wavefront":           "width=4&height=3&steps=6",
}

// TestGenerateMatchesBuild locks Materialize(Generate(p)) ≡ Build(p)
// over every grid family, every layout, fields 1 and 2, regions 1 and
// 3, with and without gaps and jitter. Build keeps its own map-deduped
// loop, so it is an independent reference for the streamed generator.
//
// Every streamed task must also have len(Deps) == cap(Deps): the
// generator carves Deps out of a shared chunk, and spare capacity would
// let an append to one task's list overwrite its neighbour's. The test
// appends to every streamed list before comparing, so an overwrite
// shows up as a mismatch too.
func TestGenerateMatchesBuild(t *testing.T) {
	var specs []string
	for _, fam := range Families() {
		if fam == "dagfile" {
			continue
		}
		shape, ok := gridShapes[fam]
		if !ok {
			t.Fatalf("family %s has no test shape", fam)
		}
		for _, layout := range []string{"malloc", "aligned", "spread", "shard"} {
			for _, fields := range []int{1, 2} {
				for _, regions := range []int{1, 3} {
					if layout == "shard" && regions > 1 {
						continue // Parse rejects it: shard aligns one region
					}
					for _, knobs := range []string{"", "&gaps=3", "&jitter=20&seed=7", "&gaps=4&jitter=35&seed=3"} {
						specs = append(specs, fmt.Sprintf("%s?%s&layout=%s&fields=%d&regions=%d%s",
							fam, shape, layout, fields, regions, knobs))
					}
				}
			}
		}
	}
	// Long enough to fill several dependence chunks.
	specs = append(specs, "stencil_1d?width=64&steps=64&regions=2&jitter=10", "dom?width=32&steps=40&regions=3")

	for _, spec := range specs {
		p, err := Parse(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		want, err := Build(p)
		if err != nil {
			t.Fatalf("%s: Build: %v", spec, err)
		}
		src, err := Generate(p, 0)
		if err != nil {
			t.Fatalf("%s: Generate: %v", spec, err)
		}
		got, err := trace.Materialize(src)
		if err != nil {
			t.Fatalf("%s: Materialize: %v", spec, err)
		}
		for i := range got.Tasks {
			d := got.Tasks[i].Deps
			if len(d) != cap(d) {
				t.Fatalf("%s: task %d Deps has len %d but cap %d", spec, i, len(d), cap(d))
			}
			_ = append(d, trace.Dep{Addr: ^uint64(0), Dir: trace.InOut})
		}
		if got.Name != want.Name || !reflect.DeepEqual(got.Kinds, want.Kinds) {
			t.Fatalf("%s: streamed %q %v, built %q %v", spec, got.Name, got.Kinds, want.Name, want.Kinds)
		}
		if len(got.Tasks) != len(want.Tasks) {
			t.Fatalf("%s: streamed %d tasks, built %d", spec, len(got.Tasks), len(want.Tasks))
		}
		for i := range want.Tasks {
			if !reflect.DeepEqual(got.Tasks[i], want.Tasks[i]) {
				t.Fatalf("%s: task %d streamed %+v, built %+v", spec, i, got.Tasks[i], want.Tasks[i])
			}
		}
	}
}
