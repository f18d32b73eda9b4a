package sched

// Small hand-rolled min-heaps for worker bookkeeping, factored out of
// the HIL runner so every engine shares one implementation. They stay
// concrete rather than instances of the generic queue.Heap: they sit on
// the accelerator loop's dispatch and retirement path, where a generic
// Less call goes through a dictionary instead of being inlined.

// IdleHeap is a min-heap of worker indices: the idle-worker freelist,
// popping the lowest index first to match the reference loop's linear
// dispatch scan.
type IdleHeap []int

// Push adds a worker index.
func (h *IdleHeap) Push(v int) {
	*h = append(*h, v)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if s[parent] <= s[i] {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

// Pop removes and returns the lowest worker index.
func (h *IdleHeap) Pop() int {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	*h = s[:n]
	s = s[:n]
	i := 0
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		least := left
		if right := left + 1; right < n && s[right] < s[left] {
			least = right
		}
		if s[i] <= s[least] {
			break
		}
		s[i], s[least] = s[least], s[i]
		i = least
	}
	return top
}

// Remove deletes worker index v from the heap, reporting whether it
// was present. O(n) scan plus sift-down — acceptable because only the
// fault layer's fail-stop path calls it, never normal dispatch.
func (h *IdleHeap) Remove(v int) bool {
	s := *h
	for i, w := range s {
		if w != v {
			continue
		}
		n := len(s) - 1
		s[i] = s[n]
		*h = s[:n]
		s = s[:n]
		if i == n {
			return true
		}
		// Restore the heap property around i (the moved element may
		// need to go either way; a full sift-down from i suffices after
		// bubbling up once if it is smaller than its parent).
		for i > 0 {
			parent := (i - 1) / 2
			if s[parent] <= s[i] {
				break
			}
			s[i], s[parent] = s[parent], s[i]
			i = parent
		}
		for {
			left := 2*i + 1
			if left >= n {
				break
			}
			least := left
			if right := left + 1; right < n && s[right] < s[left] {
				least = right
			}
			if s[i] <= s[least] {
				break
			}
			s[i], s[least] = s[least], s[i]
			i = least
		}
		return true
	}
	return false
}

// Due is one busy worker: the cycle its task completes and its index.
type Due struct {
	Until uint64
	Idx   int
}

func (a Due) less(b Due) bool {
	if a.Until != b.Until {
		return a.Until < b.Until
	}
	return a.Idx < b.Idx
}

// RemoveIdx deletes the entry for worker index idx from the heap,
// returning it. Like IdleHeap.Remove this is an O(n) fault-path-only
// operation: fail-stopping a busy worker must pull its completion
// event so the dead worker never retires.
func (h *DueHeap) RemoveIdx(idx int) (Due, bool) {
	s := *h
	for i := range s {
		if s[i].Idx != idx {
			continue
		}
		out := s[i]
		n := len(s) - 1
		s[i] = s[n]
		*h = s[:n]
		s = s[:n]
		if i == n {
			return out, true
		}
		for i > 0 {
			parent := (i - 1) / 2
			if !s[i].less(s[parent]) {
				break
			}
			s[i], s[parent] = s[parent], s[i]
			i = parent
		}
		for {
			left := 2*i + 1
			if left >= n {
				break
			}
			least := left
			if right := left + 1; right < n && s[right].less(s[left]) {
				least = right
			}
			if !s[least].less(s[i]) {
				break
			}
			s[i], s[least] = s[least], s[i]
			i = least
		}
		return out, true
	}
	return Due{}, false
}

// DueHeap is a min-heap of busy workers ordered by (Until, Idx): the
// completion order per-cycle stepping produces (earlier finish cycles
// first, worker-index order within a cycle). With heterogeneous
// classes, Until already carries the class-scaled duration, so every
// fast-forward horizon derived from the heap head stays exact.
type DueHeap []Due

// Push adds a busy worker.
func (h *DueHeap) Push(v Due) {
	*h = append(*h, v)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s[i].less(s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

// Pop removes and returns the earliest-due worker.
func (h *DueHeap) Pop() Due {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	*h = s[:n]
	s = s[:n]
	i := 0
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		least := left
		if right := left + 1; right < n && s[right].less(s[left]) {
			least = right
		}
		if !s[least].less(s[i]) {
			break
		}
		s[i], s[least] = s[least], s[i]
		i = least
	}
	return top
}
