package picos

import "repro/internal/queue"

// regFIFO is a registered hardware FIFO: an element pushed at cycle c
// with extra latency d becomes poppable at cycle c+d (d >= 1 models the
// output register). Every inter-unit channel in the model is a regFIFO,
// which makes the per-cycle evaluation order of units irrelevant.
type regFIFO[T any] struct {
	q         queue.FIFO[stamped[T]]
	highwater int
}

type stamped[T any] struct {
	at uint64
	v  T
}

// push enqueues v, visible at cycle `at`.
func (f *regFIFO[T]) push(v T, at uint64) {
	f.q.Push(stamped[T]{at: at, v: v})
	if f.q.Len() > f.highwater {
		f.highwater = f.q.Len()
	}
}

// pop removes and returns the head if it is visible at cycle now.
func (f *regFIFO[T]) pop(now uint64) (T, bool) {
	head, ok := f.q.Peek()
	if !ok || head.at > now {
		var zero T
		return zero, false
	}
	f.q.Pop()
	return head.v, true
}

// peek returns the head if visible at now, without removing it.
func (f *regFIFO[T]) peek(now uint64) (T, bool) {
	head, ok := f.q.Peek()
	if !ok || head.at > now {
		var zero T
		return zero, false
	}
	return head.v, true
}

// headAt returns the visibility stamp of the head element, whether or
// not it is visible yet. Units pop strictly in order, so the head's
// stamp is exactly the earliest cycle this channel can deliver input —
// the quantity the event-driven fast path folds into nextEvent().
func (f *regFIFO[T]) headAt() (uint64, bool) {
	head, ok := f.q.Peek()
	if !ok {
		return 0, false
	}
	return head.at, true
}

// reset drops all elements and the highwater mark, keeping the backing
// storage — the Reset path's way of recycling channel buffers.
func (f *regFIFO[T]) reset() {
	f.q.Reset()
	f.highwater = 0
}

// len returns the number of queued elements (visible or not).
func (f *regFIFO[T]) len() int { return f.q.Len() }

// empty reports whether the FIFO holds no elements at all.
func (f *regFIFO[T]) empty() bool { return f.q.Empty() }
