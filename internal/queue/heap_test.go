package queue

import (
	"container/heap"
	"math/rand"
	"testing"
)

// tieItem orders by key only, so items with equal keys but different
// ids tie under Less — the shape of perfect's finish-only run queue.
type tieItem struct {
	key uint64
	id  int
}

func (a tieItem) Less(b tieItem) bool { return a.key < b.key }

// refHeap is the same ordering behind container/heap.
type refHeap []tieItem

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].key < h[j].key }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(tieItem)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// TestHeapMatchesContainerHeap replays random push/pop sequences with
// heavy key ties into Heap and into a container/heap queue of the same
// Less, and requires the two to pop identical items (ids included) in
// identical order: engines that moved off container/heap rely on this
// to keep every simulated schedule byte-identical.
func TestHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		keys := 1 + rng.Intn(4) // 1..4 distinct keys: most pushes tie
		var h Heap[tieItem]
		var ref refHeap
		id := 0
		for step := 0; step < 500; step++ {
			if ref.Len() == 0 || rng.Intn(3) > 0 {
				it := tieItem{key: uint64(rng.Intn(keys)), id: id}
				id++
				h.Push(it)
				heap.Push(&ref, it)
				continue
			}
			got, want := h.Pop(), heap.Pop(&ref).(tieItem)
			if got != want {
				t.Fatalf("trial %d step %d: Pop = %+v, container/heap pops %+v", trial, step, got, want)
			}
		}
		for ref.Len() > 0 {
			got, want := h.Pop(), heap.Pop(&ref).(tieItem)
			if got != want {
				t.Fatalf("trial %d drain: Pop = %+v, container/heap pops %+v", trial, got, want)
			}
		}
		if h.Len() != 0 {
			t.Fatalf("trial %d: %d items left after drain", trial, h.Len())
		}
	}
}

// TestHeapOrder checks that Pop yields a non-decreasing sequence and
// that a heap truncated to [:0] is empty and reusable.
func TestHeapOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var h Heap[tieItem]
	for round := 0; round < 2; round++ {
		for i := 0; i < 1000; i++ {
			h.Push(tieItem{key: uint64(rng.Intn(100)), id: i})
		}
		prev := uint64(0)
		for i := 0; i < 500; i++ {
			it := h.Pop()
			if it.key < prev {
				t.Fatalf("round %d: popped key %d after %d", round, it.key, prev)
			}
			prev = it.key
		}
		h = h[:0]
		if h.Len() != 0 {
			t.Fatalf("round %d: truncated heap has %d items", round, h.Len())
		}
	}
}
