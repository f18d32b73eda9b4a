package nanos

import (
	"errors"
	"fmt"

	"repro/internal/sched"
	"repro/internal/taskgraph"
	"repro/internal/trace"
)

// Streaming ingestion for the software-only runtime: RunSource drives a
// trace.Source through the same discrete-event model as Run, but the
// master creates tasks straight off the stream under a bounded
// descriptor window instead of walking a materialized Tasks array.
//
// The live set holds one node per created-but-unfinished task: the
// master adds a node when its creation event fires and the worker-done
// release deletes it, so at most Config.Window nodes exist at once and
// an arbitrarily long stream replays in O(window) heap (plus the
// per-address dependence state of taskgraph.Incremental — see its doc
// for why that bound is irreducible). When the window is full the
// master parks exactly like the FullSystem HIL master under RunAhead
// backpressure, and the next release re-arms the creation chain.
//
// Dependences resolve incrementally: a new node's predecessor list is
// computed by taskgraph.Incremental, and only predecessors still live
// count toward its remaining counter — a finished predecessor imposes
// no constraint, which is exactly the semantics of Run's pre-counted
// remaining array once submitted tasks are the only ones visible.

// Typed streaming-restriction errors, mirrored on the HIL platform's.
var (
	// ErrStreamWindow rejects RunSource without a positive window: the
	// bounded live set is the entire point of the streaming driver
	// (unbounded callers should materialize and use Run).
	ErrStreamWindow = errors.New("nanos: streaming requires Window > 0")
	// ErrStreamPriority rejects bottom-level priority scheduling under
	// streaming: bottom levels are a whole-graph backward pass, which a
	// bounded window cannot compute.
	ErrStreamPriority = errors.New("nanos: priority scheduling needs the whole graph; not available when streaming")
)

// nodeState is the per-live-task bookkeeping of a streaming run.
type nodeState struct {
	remaining int32   // live predecessors not yet finished
	succ      []int32 // live successors created so far
	ndeps     int     // len(Deps), for the release cost
	dur       uint64
	kind      uint16
}

// RunSource simulates the software-only runtime on a streaming source
// under cfg.Window. Start/Finish schedules are not recorded (they would
// be O(tasks)); the Result carries the aggregate FirstStart/ThrTask
// probes instead.
func RunSource(src trace.Source, cfg Config) (*Result, error) {
	if cfg.Window <= 0 {
		return nil, ErrStreamWindow
	}
	if cfg.Sched == sched.Priority {
		return nil, ErrStreamPriority
	}
	if len(cfg.Classes) > 0 {
		if cfg.Workers != 0 {
			return nil, fmt.Errorf("nanos: both Workers (%d) and Classes (%q) set", cfg.Workers, cfg.Classes.String())
		}
		if err := cfg.Classes.Validate(); err != nil {
			return nil, err
		}
		cfg.Workers = cfg.Classes.Workers()
	}
	if cfg.Workers <= 0 {
		return nil, fmt.Errorf("nanos: need at least 1 worker, got %d", cfg.Workers)
	}
	if cfg.Timing == (Timing{}) {
		cfg.Timing = DefaultTiming()
	}
	if cfg.Watchdog == 0 {
		cfg.Watchdog = 1e12
	}
	if err := src.Rewind(); err != nil {
		return nil, fmt.Errorf("nanos: %w", err)
	}
	tm := &cfg.Timing
	threads := cfg.Workers + 1
	kinds := src.Kinds()

	res := &Result{
		Workers:  cfg.Workers,
		Baseline: src.RefSeqCycles(),
	}

	classes := cfg.Classes
	if len(classes) == 0 {
		classes = sched.Single(cfg.Workers)
	}
	// A stream's kind usage is unknown up front: require the class list
	// to cover every declared kind, plus unkinded tasks, conservatively.
	present := make([]bool, len(kinds)+1)
	for i := range present {
		present[i] = true
	}
	if err := classes.CheckCoverage(kinds, present); err != nil {
		return nil, err
	}

	sc := scratchPool.Get().(*runScratch)
	// Hand the (possibly grown) storage back to the pool — error paths
	// included.
	defer scratchPool.Put(sc)
	pool := &sc.pool
	pool.Reset(classes, cfg.Sched, cfg.Steal, kinds, nil)
	if sc.inc == nil {
		sc.inc = taskgraph.NewIncremental()
	}
	inc := sc.inc
	inc.Reset()
	live := &sc.live
	live.Reset()
	sc.loop = eventLoop{events: sc.loop.events[:0]}
	loop := &sc.loop

	var (
		fetched  int // tasks pulled off the stream so far
		finished int
		srcDone  bool

		// One-descriptor lookahead: the next task is pulled when its
		// creation event is scheduled (its CreateCost sets the event
		// time) and enters the live set when that event fires.
		pending   trace.Task
		pendingOK bool
		parked    bool // master paused on a full window

		aggDur    uint64 // Σ durations, for the SerialCycles fallback
		firstSet  bool
		first     uint64
		lastStart uint64
		started   int
	)

	// armCreate pulls the next descriptor and schedules its creation
	// event, provided the stream has one, the window has room and no
	// pull is already in flight. Returns false on stream exhaustion.
	armCreate := func(at uint64) (bool, error) {
		if pendingOK || srcDone || live.Len() >= cfg.Window {
			parked = !pendingOK && !srcDone
			return !srcDone, nil
		}
		t, ok := src.Next()
		if !ok {
			srcDone = true
			if err := trace.SourceErr(src); err != nil {
				return false, fmt.Errorf("nanos: %w", err)
			}
			return false, nil
		}
		if err := trace.ValidateTask(&t, fetched, len(kinds)); err != nil {
			return false, fmt.Errorf("nanos: %w", err)
		}
		pending, pendingOK = t, true
		parked = false
		c := t.CreateCost
		if c == 0 {
			c = tm.Create
		}
		loop.push(at+c, evMasterCreate, -1, int32(t.ID))
		return true, nil
	}
	markReady := func(t int32, at uint64) {
		kind := live.At(t).kind
		pool.Enqueue(uint32(t), kind, struct{}{})
		if w, ok := pool.WakeEligible(kind); ok {
			loop.push(at, evWorkerIdle, w, -1)
		}
	}

	if _, err := armCreate(0); err != nil {
		return nil, err
	}
	for w := 0; w < cfg.Workers; w++ {
		pool.Park(w)
	}

	for loop.events.Len() > 0 {
		if horizon := loop.events[0].at; horizon > cfg.Watchdog {
			return nil, fmt.Errorf("nanos: watchdog at cycle %d (%d finished, %d live)", horizon, finished, live.Len())
		}
		ev := loop.events.Pop()
		switch ev.kind {
		case evMasterCreate:
			t := ev.task
			task := pending
			pendingOK = false
			fetched++
			aggDur += task.Duration
			// The slot keeps its succ capacity from the task it last held.
			nd := live.Add(t)
			*nd = nodeState{succ: nd.succ[:0], ndeps: len(task.Deps), dur: task.Duration, kind: task.Kind}
			// Only predecessors still live gate this task; finished ones
			// already released their constraint.
			for _, p := range inc.Preds(t, task.Deps) {
				if pn := live.At(p); pn != nil {
					pn.succ = append(pn.succ, t)
					nd.remaining++
				}
			}
			hold := tm.inflate(tm.SubmitBase+uint64(nd.ndeps)*tm.SubmitPerDep, threads)
			end := loop.acquire(ev.at, hold)
			if nd.remaining == 0 {
				markReady(t, end)
			}
			if _, err := armCreate(end); err != nil {
				return nil, err
			}
		case evWorkerIdle:
			if !pool.CanTake(ev.who) {
				pool.Park(ev.who)
				continue
			}
			hold := tm.inflate(tm.PopHold, threads)
			end := loop.acquire(ev.at, hold)
			it, _ := pool.TakeFor(ev.who)
			t := int32(it.ID)
			if !firstSet || end < first {
				first, firstSet = end, true
			}
			if end > lastStart {
				lastStart = end
			}
			started++
			fin := end + pool.Scale(ev.who, live.At(t).dur)
			loop.push(fin, evWorkerDone, ev.who, t)
			if pool.Len() > 0 {
				if w, ok := pool.WakeAny(); ok {
					loop.push(end, evWorkerIdle, w, -1)
				}
			}
		case evWorkerDone:
			t := ev.task
			nd := live.At(t)
			hold := tm.inflate(tm.ReleaseBase+uint64(nd.ndeps)*tm.ReleasePerDep, threads)
			end := loop.acquire(ev.at, hold)
			finished++
			if ev.at > res.Makespan {
				res.Makespan = ev.at
			}
			for _, s := range nd.succ {
				sn := live.At(s)
				sn.remaining--
				if sn.remaining == 0 {
					markReady(s, end)
				}
			}
			live.Remove(t) // retire: the window slot reopens
			if parked {
				if _, err := armCreate(end); err != nil {
					return nil, err
				}
			}
			loop.push(end, evWorkerIdle, ev.who, -1)
		}
	}

	if live.Len() > 0 || pendingOK || !srcDone {
		return nil, fmt.Errorf("nanos: stream stalled with %d live tasks after %d finished (scheduler wedge)", live.Len(), finished)
	}
	res.LockBusy = loop.lockBusy
	if res.Baseline == 0 {
		res.Baseline = src.SerialCycles() + aggDur
	}
	if res.Makespan > 0 {
		res.Speedup = float64(res.Baseline) / float64(res.Makespan)
	}
	res.FirstStart = first
	if started > 1 {
		res.ThrTask = float64(lastStart-first) / float64(started-1)
	}
	return res, nil
}
