package hil

import (
	"errors"
	"fmt"

	"repro/internal/sched"
	"repro/internal/trace"
)

// Streaming ingestion: the platform fed from a trace.Source under a
// bounded descriptor window instead of a materialized trace. A task is
// "live" from the moment the platform creates its descriptor (submits
// it in HW-only mode, hands it to the link in HW+comm mode, creates it
// on the master in Full-system mode) until it retires — finishes,
// is refused at admission, or is permanently lost to a fault. At most
// Config.Window descriptors are live at once, so an arbitrarily long
// source replays in O(window) heap: no schedule arrays, no whole-trace
// task slice, just the live slot table and aggregate probes.
//
// The window is modeled backpressure on creation. It composes with the
// existing knobs — picos.NewQDepth (the accelerator's submission
// buffer) and RunAhead (the Full-system master's creation window) — so
// a windowed run can legitimately differ from the unbounded one; what
// must not differ is the fast loop against the cycle-stepped reference
// at the same window, which the equivalence matrix enforces.

// Typed streaming construction errors, so callers can gate sweeps with
// errors.Is instead of string matching.
var (
	// ErrStreamWindow rejects RunStream without a positive window: an
	// unbounded window means the workload may as well be materialized,
	// which is the Run path (sim.RunSource routes it there).
	ErrStreamWindow = errors.New("hil: RunStream needs Config.Window > 0")
	// ErrStreamPriority rejects the priority grant policy under
	// streaming: it ranks tasks by whole-graph bottom levels, which do
	// not exist until the whole graph has been seen.
	ErrStreamPriority = errors.New("hil: priority scheduling ranks tasks by whole-graph bottom levels and cannot stream")
	// ErrStreamDegrade rejects degrade recovery under streaming: the
	// gateway refuses blocked heads inside the accelerator without
	// surfacing which task was popped, so the runner could never retire
	// the descriptor and the window would leak shut.
	ErrStreamDegrade = errors.New("hil: degrade recovery refuses tasks inside the accelerator without surfacing their identity and cannot stream")
)

// RunStream drives a streaming task source through the platform under
// cfg, keeping at most cfg.Window created-but-unretired descriptors
// live. The Result carries aggregate probes only — Start/Finish/Order
// stay nil, because per-task arrays are exactly the O(tasks) state the
// window exists to avoid.
func (pl *Platform) RunStream(src trace.Source, cfg Config) (*Result, error) {
	if err := pl.r.resetStream(src, cfg); err != nil {
		pl.r.scrub()
		return nil, err
	}
	res, err := pl.r.run()
	pl.r.scrub()
	return res, err
}

// RunStream drives a source through a pooled platform.
func RunStream(src trace.Source, cfg Config) (*Result, error) {
	pl := platformPool.Get().(*Platform)
	res, err := pl.RunStream(src, cfg)
	platformPool.Put(pl)
	return res, err
}

// resetStream prepares the runner to feed from src under the bounded
// window, rejecting the configurations that structurally need the whole
// graph.
func (r *runner) resetStream(src trace.Source, cfg Config) error {
	if cfg.Window <= 0 {
		return ErrStreamWindow
	}
	if cfg.Sched == sched.Priority {
		return ErrStreamPriority
	}
	if cfg.Recovery.Degrade > 0 {
		return ErrStreamDegrade
	}
	if err := src.Rewind(); err != nil {
		return fmt.Errorf("hil: %w", err)
	}
	r.tr, r.src, r.window = nil, src, cfg.Window
	return r.resetCommon(cfg)
}

// windowOpen reports whether streaming ingestion may create another
// descriptor: fewer than window tasks are live. Materialized runs have
// no window and are always open.
func (r *runner) windowOpen() bool {
	return r.src == nil || r.live.Len() < r.window
}

// retire drops a live streaming descriptor once it can never act again
// (finished, refused, or lost); the freed window slot is what lets the
// feed pull the next task. No-op on materialized runs.
func (r *runner) retire(id uint32) {
	if r.src != nil {
		r.live.Remove(id)
	}
}

// taskAt resolves a task index to its descriptor: the trace slice on
// materialized runs, the live slot table on streaming ones. Every index
// the runner holds (parked, in flight, granted) belongs to a live task,
// so the lookup cannot miss; a retired index resolves to nil, never to
// the slot a later task reuses.
func (r *runner) taskAt(idx uint32) *trace.Task {
	if r.src == nil {
		return &r.tr.Tasks[idx]
	}
	return r.live.At(idx)
}

// srcHasNext reports whether the source may still produce a task. It is
// conservatively true before the exhausting Next call has happened;
// every consumer peeks (which settles it) before acting on it, so a
// stale true only delays a wedge proof by one evaluated iteration.
func (r *runner) srcHasNext() bool { return r.lookaheadOK || !r.srcDone }

// srcPeek exposes the next task without consuming it: the streaming
// equivalent of &tr.Tasks[next]. Tasks are validated here, as they
// arrive — the whole-trace Validate needs a whole trace. A validation
// or mid-stream source error parks in feedErr and ends the stream; the
// run loops surface it.
func (r *runner) srcPeek() (*trace.Task, bool) {
	if r.lookaheadOK {
		return &r.lookahead, true
	}
	if r.srcDone {
		return nil, false
	}
	t, ok := r.src.Next()
	if !ok {
		r.srcDone = true
		if err := trace.SourceErr(r.src); err != nil && r.feedErr == nil {
			r.feedErr = fmt.Errorf("hil: stream %s: %w", r.src.Name(), err)
		}
		return nil, false
	}
	if err := trace.ValidateTask(&t, r.fetched, len(r.kinds)); err != nil {
		r.srcDone = true
		if r.feedErr == nil {
			r.feedErr = fmt.Errorf("hil: stream %s: %w", r.src.Name(), err)
		}
		return nil, false
	}
	r.lookahead, r.lookaheadOK = t, true
	return &r.lookahead, true
}

// srcCommit consumes the peeked task into the live window and returns
// its index. Callers peek first; committing without a valid lookahead
// is a programming error the live-table miss would surface immediately.
func (r *runner) srcCommit() uint32 {
	r.lookaheadOK = false
	r.fetched++
	r.aggDur += r.lookahead.Duration
	*r.live.Add(r.lookahead.ID) = r.lookahead
	return r.lookahead.ID
}

// feedPending reports an unfinished materialized HW-only preload feed
// (tasks [feedNext, len) not yet handed to the accelerator). Streaming
// runs feed from the source instead; see stepSubmits.
func (r *runner) feedPending() bool {
	return r.src == nil && r.feedNext < len(r.tr.Tasks)
}

// masterHasNext reports whether the FullSystem master has another task
// to create.
func (r *runner) masterHasNext() bool {
	if r.src == nil {
		return r.masterNext < len(r.tr.Tasks)
	}
	return r.srcHasNext()
}

// tasksOutstanding reports that tasks which could still produce (or
// become) work remain: the run loops terminate when it turns false and
// the platform has drained. On materialized runs this is the historical
// accounted() < len(tasks); on streaming runs it is live descriptors
// plus an unexhausted source.
func (r *runner) tasksOutstanding() bool {
	if r.src == nil {
		return r.accounted() < len(r.tr.Tasks)
	}
	return r.live.Len() > 0 || r.srcHasNext()
}

// stepFeed advances HW+comm streaming ingestion: while the descriptor
// window has room, the next created task is handed to the link at the
// current cycle — the streaming analogue of the materialized preload
// that stamps every task available at cycle 0. HW-only feeds in
// stepSubmits (straight into the accelerator) and Full-system in
// stepMaster (paying the creation cost); both are window-gated the same
// way.
//
//picos:hotpath
func (r *runner) stepFeed(now uint64) {
	if r.src == nil || r.cfg.Mode != HWComm {
		return
	}
	for r.windowOpen() {
		if _, ok := r.srcPeek(); !ok {
			return
		}
		r.pendingNew.Push(stampedTask{at: now, idx: r.srcCommit()})
	}
}

// streamResult assembles the aggregate-probe Result of a streaming run.
// Makespan, FirstStart and ThrTask come from counters updated at worker
// start/finish instead of a post-hoc walk over per-task arrays, and the
// Baseline from the running duration sum plus the source's serial-work
// fields — the same values the materialized result() computes, without
// the O(tasks) state.
func (r *runner) streamResult() *Result {
	res := &Result{
		Mode:       r.cfg.Mode,
		Workers:    r.cfg.Workers,
		Makespan:   r.aggMakespan,
		FirstStart: r.aggFirst,
		Stats:      *r.p.Stats(),
		Busy:       r.p.Busy(),
	}
	res.Baseline = r.src.RefSeqCycles()
	if res.Baseline == 0 {
		res.Baseline = r.src.SerialCycles() + r.aggDur
	}
	if r.aggStarted > 1 {
		res.ThrTask = float64(r.aggLastStart-r.aggFirst) / float64(r.aggStarted-1)
	}
	if res.Makespan > 0 {
		res.Speedup = float64(res.Baseline) / float64(res.Makespan)
	}
	res.LostTasks = r.lost
	res.RecoveredTasks = r.recovered
	res.RefusedTasks = r.refused
	res.RefusedIDs = r.refusedIDs
	if r.flt != nil && r.flt.Fired {
		res.Faulted = true
	}
	if f := r.cfg.Picos.Faults; f != nil {
		if f.Fired {
			res.Faulted = true
		}
		res.RefusedTasks += int(f.Refused)
	}
	return res
}
