package sched

import (
	"math/rand"
	"testing"
)

// refGrant is Grant as it was before the empty-queue early return: pop
// every idle worker in ascending order, try takeFor on each, and push
// the unpaired ones back. It is the oracle TestGrantMatchesReference
// replays the pool against.
func refGrant[P any](p *Pool[P]) (w int, it Item[P], ok bool) {
	p.scratch = p.scratch[:0]
	for len(p.idle) > 0 {
		cand := p.idle.Pop()
		if item, found := p.takeFor(cand); found {
			w, it, ok = cand, item, true
			p.idleByCls[p.classOf[cand]]--
			p.lastCls[item.Kind] = int16(p.classOf[cand])
			break
		}
		p.scratch = append(p.scratch, cand)
	}
	for _, s := range p.scratch {
		p.idle.Push(s)
	}
	return w, it, ok
}

// TestGrantMatchesReference replays random sequences of Enqueue, Park,
// Grant, TakeFor, WakeAny and WakeEligible on two pools, one granting
// through Grant and one through refGrant, and requires every call to
// return the same (worker, item, ok) on both. Many grants run on an
// empty ready queue, the case the early return skips; the test counts
// them and requires both kinds of grant to occur. Every policy, steal on and off, and uniform and mixed classes with
// affinities are covered.
func TestGrantMatchesReference(t *testing.T) {
	kinds := []string{"a", "b", "c"}
	specs := []string{
		"6xw",
		"2xfast+3xslow:2.0",
		"2xfast@a,b+2xslow:3.0@c+1xany:1.5",
	}
	policies := []Policy{FIFO, LIFO, Priority, Locality}
	rng := rand.New(rand.NewSource(1))
	var empty, paired int
	for _, spec := range specs {
		cs, err := Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		nw := cs.Workers()
		for _, policy := range policies {
			for _, steal := range []bool{false, true} {
				for seq := 0; seq < 40; seq++ {
					e, p := replayAgainstReference(t, rng, cs, nw, policy, steal, kinds)
					empty += e
					paired += p
				}
			}
		}
	}
	if empty == 0 || paired == 0 {
		t.Fatalf("replays made %d empty-queue grants and %d pairings; want both", empty, paired)
	}
}

// replayAgainstReference runs one random op sequence on a fresh pair of
// pools and fails on the first diverging call. It returns how many
// grants found the ready queue empty and how many paired a worker.
func replayAgainstReference(t *testing.T, rng *rand.Rand, cs Classes, nw int, policy Policy, steal bool, kinds []string) (empty, paired int) {
	t.Helper()
	const ids = 256
	prio := make([]uint64, ids)
	for i := range prio {
		prio[i] = uint64(rng.Intn(8))
	}
	var got, want Pool[int]
	got.Reset(cs, policy, steal, kinds, prio)
	want.Reset(cs, policy, steal, kinds, prio)
	parked := make([]bool, nw)
	for w := 0; w < nw; w++ {
		if rng.Intn(3) > 0 {
			got.Park(w)
			want.Park(w)
			parked[w] = true
		}
	}
	// Kinds are drawn from the table plus the unkinded 0; every spec
	// above has a class eligible for each of them.
	nextID := uint32(0)
	for step := 0; step < 120; step++ {
		if nextID == ids {
			break
		}
		switch op := rng.Intn(6); op {
		case 0: // Enqueue
			k := uint16(rng.Intn(len(kinds) + 1))
			got.Enqueue(nextID, k, int(nextID))
			want.Enqueue(nextID, k, int(nextID))
			nextID++
		case 1: // Park a busy worker
			w := rng.Intn(nw)
			if parked[w] {
				continue
			}
			got.Park(w)
			want.Park(w)
			parked[w] = true
		case 2: // Grant until exhausted
			for {
				if got.Len() == 0 {
					empty++
				}
				gw, git, gok := got.Grant()
				ww, wit, wok := refGrant(&want)
				if gw != ww || git != wit || gok != wok {
					t.Fatalf("%s %s steal=%v step %d: Grant = (%d, %+v, %v), reference (%d, %+v, %v)",
						cs, policy, steal, step, gw, git, gok, ww, wit, wok)
				}
				if !gok {
					break
				}
				paired++
				parked[gw] = false
			}
		case 3: // TakeFor on a busy worker
			w := rng.Intn(nw)
			if parked[w] {
				continue
			}
			git, gok := got.TakeFor(w)
			wit, wok := want.TakeFor(w)
			if git != wit || gok != wok {
				t.Fatalf("%s %s steal=%v step %d: TakeFor(%d) = (%+v, %v), reference (%+v, %v)",
					cs, policy, steal, step, w, git, gok, wit, wok)
			}
		case 4: // WakeAny
			gw, gok := got.WakeAny()
			ww, wok := want.WakeAny()
			if gw != ww || gok != wok {
				t.Fatalf("%s %s steal=%v step %d: WakeAny = (%d, %v), reference (%d, %v)",
					cs, policy, steal, step, gw, gok, ww, wok)
			}
			if gok {
				parked[gw] = false
			}
		case 5: // WakeEligible
			k := uint16(rng.Intn(len(kinds) + 1))
			gw, gok := got.WakeEligible(k)
			ww, wok := want.WakeEligible(k)
			if gw != ww || gok != wok {
				t.Fatalf("%s %s steal=%v step %d: WakeEligible(%d) = (%d, %v), reference (%d, %v)",
					cs, policy, steal, step, k, gw, gok, ww, wok)
			}
			if gok {
				parked[gw] = false
			}
		}
		if got.Len() != want.Len() || got.Idle() != want.Idle() {
			t.Fatalf("%s %s steal=%v step %d: pool has %d ready / %d idle, reference %d / %d",
				cs, policy, steal, step, got.Len(), got.Idle(), want.Len(), want.Idle())
		}
	}
	return empty, paired
}
