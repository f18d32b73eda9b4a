package queue

// Slots is a table of live values keyed by id: an id→slot index into a
// value slab, with retired slots recycled through a free list. The
// streamed runners keep their bounded live windows in one, so a window
// of n tasks costs n slab entries that every later task reuses instead
// of one heap object per task.
//
// A slot keeps its previous value when it is recycled: Add hands the
// caller the old value to overwrite or reuse (a slice field's capacity,
// say), and Clear zeroes the slab when the values hold references that
// must not outlive a run. Pointers returned by Add and At stay valid
// until the next Add, which may grow the slab.
//
// The zero value is an empty table that must be Reset before its first
// Add.
type Slots[K comparable, V any] struct {
	index map[K]int32
	slab  []V
	free  []int32
}

// Len returns the number of live ids.
func (s *Slots[K, V]) Len() int { return len(s.index) }

// Add makes id live and returns its slot, which holds whatever value
// the slot last had (the zero value for a fresh one). id must not be
// live already.
//
//picos:hotpath
func (s *Slots[K, V]) Add(id K) *V {
	var slot int32
	if n := len(s.free); n > 0 {
		slot = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		slot = int32(len(s.slab))
		if len(s.slab) < cap(s.slab) {
			s.slab = s.slab[:slot+1] // the value kept from before a Reset
		} else {
			var zero V
			s.slab = append(s.slab, zero)
		}
	}
	s.index[id] = slot
	return &s.slab[slot]
}

// At returns id's slot, or nil when id is not live — never a slot that
// a retired id once had and a later id now reuses.
//
//picos:hotpath
func (s *Slots[K, V]) At(id K) *V {
	slot, ok := s.index[id]
	if !ok {
		return nil
	}
	return &s.slab[slot]
}

// Remove retires id, returning its slot to the free list. Removing an
// id that is not live does nothing.
//
//picos:hotpath
func (s *Slots[K, V]) Remove(id K) {
	slot, ok := s.index[id]
	if !ok {
		return
	}
	delete(s.index, id)
	s.free = append(s.free, slot)
}

// Reset retires every id, keeping the storage and the slot values for
// the next run's Adds to reuse. It must run before the first Add.
func (s *Slots[K, V]) Reset() {
	if s.index == nil {
		s.index = make(map[K]int32)
	} else {
		clear(s.index)
	}
	s.free = s.free[:0]
	s.slab = s.slab[:0]
}

// Clear is Reset that also zeroes every slot value, so the table keeps
// no reference a value held.
func (s *Slots[K, V]) Clear() {
	clear(s.slab[:cap(s.slab)])
	s.Reset()
}
