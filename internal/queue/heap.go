package queue

// Heap is a binary min-heap of values ordered by their Less method
// (a.Less(b) reports whether a pops before b) — the event queues of the
// software-runtime and roofline models. The zero value is an empty
// heap; truncating to [:0] empties it and keeps the storage, so pooled
// scratch reuses it across runs.
//
// Push and Pop sift exactly as container/heap's Push and Pop do, so
// elements that tie under Less pop in the same order a container/heap
// queue of the same Less would pop them; unlike container/heap, no
// element is boxed through an interface.
type Heap[T interface{ Less(T) bool }] []T

// Len returns the number of queued elements.
func (h Heap[T]) Len() int { return len(h) }

// Push adds v.
//
//picos:hotpath
func (h *Heap[T]) Push(v T) {
	*h = append(*h, v)
	s := *h
	j := len(s) - 1
	for j > 0 {
		i := (j - 1) / 2 // parent
		if !s[j].Less(s[i]) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

// Pop removes and returns the least element. The heap must not be
// empty.
//
//picos:hotpath
func (h *Heap[T]) Pop() T {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	i := 0
	for {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if r := j + 1; r < n && s[r].Less(s[j]) {
			j = r
		}
		if !s[j].Less(s[i]) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	*h = s[:n]
	return s[n]
}
