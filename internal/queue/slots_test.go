package queue

import (
	"math/rand"
	"testing"
)

// TestSlotsMatchesMap replays random Add/Remove/At sequences against a
// plain map of values: every live id resolves to its own value, and a
// retired id resolves to nothing even after a later id reuses its slot.
func TestSlotsMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var s Slots[uint32, int]
	s.Reset()
	for round := 0; round < 3; round++ {
		ref := map[uint32]int{}
		var retired []uint32
		next := uint32(0)
		for step := 0; step < 2000; step++ {
			if len(ref) < 32 && rng.Intn(2) == 0 {
				v := s.Add(next)
				*v = int(next) * 7
				ref[next] = int(next) * 7
				next++
			} else if len(ref) > 0 {
				// Retire a pseudo-random live id (map order is random,
				// so pick by a drawn offset over the id range).
				id := uint32(rng.Intn(int(next)))
				if _, live := ref[id]; !live {
					continue
				}
				s.Remove(id)
				s.Remove(id) // a second Remove is a no-op
				delete(ref, id)
				retired = append(retired, id)
			}
			if s.Len() != len(ref) {
				t.Fatalf("round %d step %d: Len %d, want %d", round, step, s.Len(), len(ref))
			}
			for id, want := range ref {
				if v := s.At(id); v == nil || *v != want {
					t.Fatalf("round %d step %d: At(%d) = %v, want %d", round, step, id, v, want)
				}
			}
			for _, id := range retired {
				if v := s.At(id); v != nil {
					t.Fatalf("round %d step %d: retired id %d resolves to slot value %d", round, step, id, *v)
				}
			}
		}
		if len(s.slab) > 32 {
			t.Fatalf("round %d: slab grew to %d slots for at most 32 live ids", round, len(s.slab))
		}
		s.Reset()
		if s.Len() != 0 {
			t.Fatalf("Reset left %d live ids", s.Len())
		}
	}
}

// TestSlotsReuseAndClear checks that Reset keeps slot values for the
// next run's Adds to reuse and that Clear zeroes them.
func TestSlotsReuseAndClear(t *testing.T) {
	var s Slots[int32, []int]
	s.Reset()
	for id := int32(0); id < 4; id++ {
		*s.Add(id) = make([]int, 0, 8)
	}
	s.Reset()
	if v := s.Add(9); cap(*v) != 8 {
		t.Fatalf("slot after Reset has cap %d, want the kept 8", cap(*v))
	}
	s.Clear()
	for id := int32(0); id < 4; id++ {
		if v := s.Add(id); *v != nil {
			t.Fatalf("slot %d after Clear holds %v, want nil", id, *v)
		}
	}
}
