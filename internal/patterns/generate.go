package patterns

import (
	"fmt"
	"strings"

	"repro/internal/detrand"
	"repro/internal/picos"
	"repro/internal/trace"
)

// Generate returns a lazy trace.Source over the pattern: tasks are
// produced one at a time in the same step-major creation order Build
// materializes, so Materialize(Generate(p)) is byte-identical to
// Build(p) (TestGenerateMatchesBuild in generate_test.go locks it), but
// the grid is never held in memory — a width*steps grid of millions of
// tasks streams in O(width) state. task-bench generates its grids the
// same way: the dependence functions are closed-form in (t, i), so
// nothing about a timestep needs the materialized previous one.
//
// retain bounds the dagfile family's node-retention window (0:
// unbounded); the grid families ignore it — their per-task state is
// already bounded by the row width.
func Generate(p Params, retain int) (trace.Source, error) {
	fam, ok := families[p.Family]
	if !ok {
		return nil, fmt.Errorf("patterns: unknown family %q (have %s)", p.Family, strings.Join(Families(), ", "))
	}
	if p.Family == "dagfile" {
		return streamDAGFile(p, retain)
	}
	stride := layoutStrides[p.Layout]
	if stride == 0 {
		return nil, fmt.Errorf("patterns: unknown layout %q (have malloc, aligned, spread)", p.Layout)
	}
	if p.Fields < 1 {
		p.Fields = DefaultFields
	}
	if p.Height < 1 {
		p.Height = 1
	}
	if p.Regions < 1 {
		p.Regions = 1
	}
	src := &gridSource{
		p:      p,
		fam:    fam,
		stride: stride,
		points: p.points(),
		name:   "pattern-" + p.Name(),
		kinds:  []string{p.Family},
		deps:   make([]trace.Dep, 0, trace.MaxDeps),
	}
	if p.Layout == "shard" && !fam.freshAddr {
		// The slot table of the chaining families is O(points*fields) —
		// bounded by the row width, not the task count — so it is the one
		// piece of shard-layout state worth precomputing.
		nbuf := src.points * p.Fields
		addrs := make([]uint64, nbuf)
		next := uint64(patternBase)
		for s := 0; s < nbuf; s++ {
			target := (s / p.Fields) * p.Shards / src.points
			for picos.Shard(picos.ShardXorFold, next, p.Shards) != target {
				next += stride
			}
			addrs[s] = next
			next += stride
		}
		src.addrs = addrs
	}
	src.reset()
	return src, nil
}

// depChunk is how many dependences one shared chunk holds (16 KiB). A
// chunk is freed once every task carved from it has been dropped, so a
// bounded window of live tasks pins a bounded number of chunks.
const depChunk = 1024

// gridSource streams one pattern grid in step-major order with O(width)
// retained state. The only cursor beyond (t, i) is the shard layout's
// sequential probe position for fresh-address families, whose slot
// sequence t*points+i is exactly the emission order.
//
// Next allocates nothing per task: the family's inputs land in a reused
// buffer, each task's dependences are built in a scratch slice, and the
// finished list is copied into a shared chunk. The emitted Deps is the
// task's own sub-slice of that chunk, clipped to its length and
// capacity, and the chunk is never written there again — so the Deps
// still belongs to the caller, as trace.Source requires.
type gridSource struct {
	p      Params
	fam    family
	stride uint64
	points int
	name   string
	kinds  []string
	addrs  []uint64 // shard layout, chaining families: full slot table

	t, i int
	id   uint32
	// Shard-layout probe cursor for fresh-address families.
	slot     int
	nextAddr uint64

	in    []int       // the family's inputs for the task being built
	deps  []trace.Dep // the task being built, cap MaxDeps
	chunk []trace.Dep // the shared chunk emitted Deps are carved from
}

func (s *gridSource) Name() string         { return s.name }
func (s *gridSource) Kinds() []string      { return s.kinds }
func (s *gridSource) SerialCycles() uint64 { return 0 }
func (s *gridSource) RefSeqCycles() uint64 { return 0 }

func (s *gridSource) Rewind() error { s.reset(); return nil }

func (s *gridSource) reset() {
	s.t, s.i, s.id = 0, 0, 0
	s.slot, s.nextAddr = 0, patternBase
}

// buf returns the step-t field buffer of point i, matching Build's
// layout arithmetic slot for slot.
func (s *gridSource) buf(i, t int) uint64 {
	if s.addrs != nil {
		return s.addrs[i*s.p.Fields+t%s.p.Fields]
	}
	return patternBase + uint64(i*s.p.Fields+t%s.p.Fields)*s.stride
}

// freshShardAddr advances the sequential probe cursor to the given slot
// and returns its address. Fresh-address tasks consume slots in strictly
// increasing order (slot = t*points+i in emission order), so the cursor
// only ever moves forward — skipped hole slots are probed and discarded
// exactly as Build's precomputed table does.
func (s *gridSource) freshShardAddr(slot int) uint64 {
	var addr uint64
	for ; s.slot <= slot; s.slot++ {
		target := (s.slot % s.points) * s.p.Shards / s.points
		for picos.Shard(picos.ShardXorFold, s.nextAddr, s.p.Shards) != target {
			s.nextAddr += s.stride
		}
		addr = s.nextAddr
		s.nextAddr += s.stride
	}
	return addr
}

//picos:hotpath
func (s *gridSource) Next() (trace.Task, bool) {
	p := s.p
	for {
		if s.i >= s.points {
			s.i = 0
			s.t++
		}
		if s.t >= p.Steps {
			return trace.Task{}, false
		}
		t, i := s.t, s.i
		s.i++
		if p.hole(i) {
			continue
		}
		id := s.id
		s.id++

		own := s.buf(i, t)
		if s.fam.freshAddr {
			if p.Layout == "shard" {
				own = s.freshShardAddr(t*s.points + i)
			} else {
				own = patternBase + uint64(t*s.points+i)*s.stride
			}
		}
		deps := s.addRegions(s.deps[:0], own, trace.InOut)
		if t > 0 {
			s.in = s.fam.inputs(s.in[:0], p, t, i)
			for _, j := range s.in {
				if j < 0 || j >= s.points || p.hole(j) {
					continue
				}
				deps = s.addRegions(deps, s.buf(j, t-1), trace.In)
			}
		}
		s.deps = deps
		dur := p.Len
		if p.Jitter > 0 {
			dur = detrand.Jitter(p.Len, p.Seed^uint64(id)<<1, p.Jitter)
		}
		return trace.Task{ID: id, Deps: s.carve(deps), Duration: dur, Kind: 1}, true
	}
}

// addRegions mirrors Build's addRegions: one dependence per address
// region, deduplicated, capped at the hardware's per-task limit. A task
// has at most MaxDeps dependences, so a linear scan dedupes faster than
// any set.
//
//picos:hotpath
func (s *gridSource) addRegions(deps []trace.Dep, base uint64, dir trace.Direction) []trace.Dep {
	for r := 0; r < s.p.Regions; r++ {
		a := base + uint64(r)*regionStride
		if len(deps) == trace.MaxDeps || hasAddr(deps, a) {
			continue
		}
		deps = append(deps, trace.Dep{Addr: a, Dir: dir})
	}
	return deps
}

// hasAddr reports whether deps already names address a.
func hasAddr(deps []trace.Dep, a uint64) bool {
	for _, d := range deps {
		if d.Addr == a {
			return true
		}
	}
	return false
}

// carve copies deps into the shared chunk and returns the copy, clipped
// so that appending to it reallocates instead of writing into the next
// task's dependences.
//
//picos:hotpath
func (s *gridSource) carve(deps []trace.Dep) []trace.Dep {
	if len(s.chunk)+len(deps) > cap(s.chunk) {
		s.refill()
	}
	n := len(s.chunk)
	s.chunk = append(s.chunk, deps...)
	return s.chunk[n:len(s.chunk):len(s.chunk)]
}

// refill starts a fresh chunk. The full one is left to the tasks carved
// from it and is freed with the last of them.
func (s *gridSource) refill() {
	s.chunk = make([]trace.Dep, 0, depChunk)
}
