package taskgraph

import (
	"slices"

	"repro/internal/trace"
)

// Incremental is the dependence analysis, one task at a time: feed tasks
// in creation order and Preds returns each task's deduplicated,
// ascending predecessor list. Streaming consumers that never hold the
// whole trace use it directly; Build folds it over a whole trace.
//
// Memory grows with the number of *distinct dependence addresses* and
// the readers live on them, not with the number of tasks. Per address
// the analysis keeps the last writer and the readers since that writer,
// which is the irreducible state of OmpSs dependence semantics (any
// future task may still name the address). Reader lists are linked
// nodes drawn from one pooled slab: a writer returns its address's
// readers to the free list as it walks them for WAR edges, so the slab
// stays as large as the most readers ever live at once. Grid patterns
// touch O(width) addresses, so unbounded replays stay bounded;
// fresh-address families inherently grow it.
type Incremental struct {
	index   map[uint64]int32 // address -> slot in states
	states  []addrState
	nodes   []readerNode // reader lists and the free list, linked by index
	free    int32        // head of the free node list, -1 if empty
	scratch []int32
}

// addrState is the analysis state of one address.
type addrState struct {
	lastWriter int32 // -1 if none
	readers    int32 // head of the reader list since lastWriter, -1 if empty
}

// readerNode is one reader of an address, or one free slab slot.
type readerNode struct {
	task int32
	next int32 // -1 ends the list
}

// NewIncremental returns an empty analysis.
func NewIncremental() *Incremental {
	return &Incremental{index: make(map[uint64]int32), free: -1}
}

// Reset empties the analysis for reuse, keeping its storage.
func (inc *Incremental) Reset() {
	clear(inc.index)
	inc.states = inc.states[:0]
	inc.nodes = inc.nodes[:0]
	inc.free = -1
}

// Preds analyzes the next task (ID id, in creation order) and returns
// its deduplicated, ascending predecessor list. The returned slice is
// scratch owned by the Incremental — copy it if it must survive the
// next call.
//
//picos:hotpath
func (inc *Incremental) Preds(id int32, deps []trace.Dep) []int32 {
	preds := inc.scratch[:0]
	for _, d := range deps {
		slot, ok := inc.index[d.Addr]
		if !ok {
			slot = int32(len(inc.states))
			inc.states = append(inc.states, addrState{lastWriter: -1, readers: -1})
			inc.index[d.Addr] = slot
		}
		st := &inc.states[slot]
		if d.Dir.Reads() && st.lastWriter >= 0 {
			preds = append(preds, st.lastWriter) // RAW
		}
		if d.Dir.Writes() {
			if st.lastWriter >= 0 {
				preds = append(preds, st.lastWriter) // WAW
			}
			for r := st.readers; r >= 0; { // WAR, freeing each reader
				nd := &inc.nodes[r]
				if nd.task != id {
					preds = append(preds, nd.task)
				}
				next := nd.next
				nd.next, inc.free = inc.free, r
				r = next
			}
			st.lastWriter, st.readers = id, -1
		} else if d.Dir.Reads() {
			node := readerNode{task: id, next: st.readers}
			if r := inc.free; r >= 0 {
				inc.free = inc.nodes[r].next
				inc.nodes[r] = node
				st.readers = r
			} else {
				st.readers = int32(len(inc.nodes))
				inc.nodes = append(inc.nodes, node)
			}
		}
	}
	if len(preds) > 1 {
		slices.Sort(preds)
		preds = slices.Compact(preds)
	}
	inc.scratch = preds
	return preds
}
