package picos

import (
	"math/rand"
	"testing"
)

// refArbHeap is the arbiter queue as it was before the slab: a binary
// min-heap of whole messages keyed (at, seq). It is kept as the oracle
// the slab-backed arbHeap must reproduce pop for pop.
type refArbHeap struct {
	h []struct {
		at, seq uint64
		m       arbMsg
	}
	seq uint64
}

func (q *refArbHeap) less(i, j int) bool {
	if q.h[i].at != q.h[j].at {
		return q.h[i].at < q.h[j].at
	}
	return q.h[i].seq < q.h[j].seq
}

func (q *refArbHeap) push(m arbMsg, at uint64) {
	q.h = append(q.h, struct {
		at, seq uint64
		m       arbMsg
	}{at, q.seq, m})
	q.seq++
	for i := len(q.h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.h[i], q.h[parent] = q.h[parent], q.h[i]
		i = parent
	}
}

func (q *refArbHeap) pop(now uint64) (arbMsg, bool) {
	if len(q.h) == 0 || q.h[0].at > now {
		return arbMsg{}, false
	}
	m := q.h[0].m
	last := len(q.h) - 1
	q.h[0] = q.h[last]
	q.h = q.h[:last]
	for i := 0; ; {
		l, r, smallest := 2*i+1, 2*i+2, i
		if l < len(q.h) && q.less(l, smallest) {
			smallest = l
		}
		if r < len(q.h) && q.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		q.h[i], q.h[smallest] = q.h[smallest], q.h[i]
		i = smallest
	}
	return m, true
}

// TestArbHeapMatchesReference drives the slab-backed arbiter queue and
// the whole-message reference heap through the same random pushes, pops
// and resets: every pop must return the same message (so the same
// (at, seq) order) and the head stamps must agree throughout.
func TestArbHeapMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var got arbHeap
	var ref refArbHeap
	now := uint64(0)
	for op := 0; op < 200_000; op++ {
		switch r := rng.Intn(100); {
		case r < 1:
			got.reset()
			ref = refArbHeap{h: ref.h[:0]}
		case r < 55:
			// Stamps cluster near the clock so equal stamps (ordered by
			// issue) are common.
			m := arbMsg{kind: arbKind(rng.Intn(4))}
			m.wake.task.Slot = uint16(op)
			m.dep.addr = rng.Uint64()
			m.stat.depIdx = uint8(rng.Intn(15))
			at := now + uint64(rng.Intn(8))
			got.push(m, at)
			ref.push(m, at)
		default:
			now += uint64(rng.Intn(3))
			gm, gok := got.pop(now)
			rm, rok := ref.pop(now)
			if gm != rm || gok != rok {
				t.Fatalf("op %d: pop(%d) = %+v,%v; reference %+v,%v", op, now, gm, gok, rm, rok)
			}
		}
		gat, gok := got.headAt()
		rok := len(ref.h) > 0
		if gok != rok || (rok && gat != ref.h[0].at) || got.empty() != !rok {
			t.Fatalf("op %d: head diverges: %d,%v vs reference", op, gat, gok)
		}
	}
}
