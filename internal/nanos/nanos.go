// Package nanos models the software-only Nanos++ runtime the paper
// compares against: a master thread that creates and submits every task
// (paying per-task and per-dependence analysis costs inside a contended
// global runtime lock) and worker threads that pop ready tasks and
// release dependences under the same lock. The lock-hold times grow with
// the number of active threads (cache-line contention), which produces
// the two signature behaviours of Figures 1 and 11: scaling saturates
// around 8 workers, and fine-grained tasks collapse once per-task
// overhead rivals task duration.
package nanos

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/queue"
	"repro/internal/sched"
	"repro/internal/taskgraph"
	"repro/internal/trace"
)

// Timing is the software runtime cost model, in cycles. Values are
// calibrated against Figure 10 of the paper (task creation roughly
// constant; submission growing with dependence count and thread count).
type Timing struct {
	Create        uint64  // task creation, outside the lock
	SubmitBase    uint64  // submission + insertion, inside the lock
	SubmitPerDep  uint64  // dependence analysis per dependence, in-lock
	PopHold       uint64  // ready-queue pop, in-lock
	ReleaseBase   uint64  // finish bookkeeping, in-lock
	ReleasePerDep uint64  // dependence release per dependence, in-lock
	Contention    float64 // per-extra-thread inflation of in-lock time
}

// DefaultTiming returns the calibrated model.
func DefaultTiming() Timing {
	return Timing{
		Create:        1800,
		SubmitBase:    700,
		SubmitPerDep:  400,
		PopHold:       300,
		ReleaseBase:   500,
		ReleasePerDep: 350,
		Contention:    0.18,
	}
}

// inflate applies the contention factor for a given thread count (master
// + workers all hammer the same runtime structures).
func (t *Timing) inflate(hold uint64, threads int) uint64 {
	if threads <= 1 {
		return hold
	}
	return uint64(float64(hold) * (1 + t.Contention*float64(threads-1)))
}

// CreationOverhead returns the Figure 10 "Creation" series: per-task
// creation cost at a given thread count.
func (t *Timing) CreationOverhead(threads int) uint64 { return t.Create }

// SubmissionOverhead returns the Figure 10 "x DEPs" series: per-task
// submission cost for a task with nDeps dependences at a thread count.
func (t *Timing) SubmissionOverhead(nDeps, threads int) uint64 {
	return t.inflate(t.SubmitBase+uint64(nDeps)*t.SubmitPerDep, threads)
}

// Config configures a software-only run.
type Config struct {
	// Workers is the homogeneous worker count. Mutually exclusive with
	// Classes: when Classes is non-empty the worker count is the sum of
	// the class counts and Workers must be zero.
	Workers int
	// Classes declares heterogeneous worker classes (per-class
	// service-time multipliers, optional task-kind affinity). Empty
	// means Workers identical baseline cores. Lock-hold costs are not
	// scaled — the runtime lock is contended by every thread equally;
	// only task execution time is class-scaled.
	Classes sched.Classes
	// Sched is the ready-task grant policy (sched.FIFO preserves the
	// historical pop-in-ready-order semantics).
	Sched sched.Policy
	// Steal enables per-class ready queues with deterministic
	// ascending-class victim order.
	Steal    bool
	Timing   Timing
	Watchdog uint64 // safety bound on simulated cycles (0: 1e12)
	// Window bounds streaming ingestion (RunSource only): the maximum
	// number of created-but-unfinished tasks kept live at once. RunSource
	// requires it positive; Run (materialized) ignores it. See stream.go.
	Window int
}

// Result is the outcome of a software-only run.
type Result struct {
	Workers  int
	Makespan uint64
	Baseline uint64
	Speedup  float64
	Start    []uint64
	Finish   []uint64
	// LockBusy is the total cycles the runtime lock was held — the
	// contention diagnostic behind the 8-worker knee.
	LockBusy uint64
	// FirstStart/ThrTask are the aggregate latency/throughput probes
	// stamped by the streaming RunSource, which records no Start array
	// to derive them from; the materialized Run leaves them zero and the
	// engine derives them with sim.Probes.
	FirstStart uint64
	ThrTask    float64
}

// event kinds for the discrete-event simulation.
type evKind uint8

const (
	evMasterCreate evKind = iota // master finished creating, wants the lock
	evWorkerIdle                 // worker wants to pop a ready task
	evWorkerDone                 // worker finished executing a task
)

type event struct {
	at   uint64
	seq  uint64 // FIFO tie-break
	kind evKind
	who  int   // worker index
	task int32 // evWorkerDone
}

// Less orders events by time, then by scheduling order.
func (a event) Less(b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventLoop is the discrete-event core Run and RunSource share: the
// event queue and the global runtime lock. The model is inherently
// event-driven — the head of the queue is the run's horizon — so
// sim.Spec's FastForward knob has nothing to switch here.
type eventLoop struct {
	events   queue.Heap[event]
	seq      uint64
	lockFree uint64 // cycle the runtime lock next comes free
	lockBusy uint64 // total cycles the lock was held
}

func (l *eventLoop) push(at uint64, kind evKind, who int, task int32) {
	l.seq++
	l.events.Push(event{at: at, seq: l.seq, kind: kind, who: who, task: task})
}

// acquire serializes an in-lock section of duration hold (already
// contention-inflated by the caller) starting no earlier than at, and
// returns the section's end time.
func (l *eventLoop) acquire(at, hold uint64) uint64 {
	l.lockFree = max(l.lockFree, at) + hold
	l.lockBusy += hold
	return l.lockFree
}

// runScratch is the per-run working state of the discrete-event loop,
// pooled across runs so steady-state sweeps re-simulate without
// reallocating the event heap and per-task bookkeeping (the run's event
// horizon gets warm storage; only the Start/Finish arrays that escape
// into the Result are fresh). Run uses the per-task arrays, RunSource
// the live slab (each slot's succ capacity included) and the lazily
// built dependence analysis; both share the event loop and ready pool.
type runScratch struct {
	remaining []int32 // unfinished predecessors
	submitted []bool
	loop      eventLoop
	pool      sched.Pool[struct{}] // ready tasks + parked workers
	live      queue.Slots[int32, nodeState]
	inc       *taskgraph.Incremental
}

var scratchPool = sync.Pool{New: func() any { return new(runScratch) }}

// grab sizes the scratch for n tasks, reusing capacity where possible.
func (s *runScratch) grab(n int) {
	s.remaining = slices.Grow(s.remaining[:0], n)[:n]
	s.submitted = slices.Grow(s.submitted[:0], n)[:n]
	clear(s.submitted)
	s.loop = eventLoop{events: s.loop.events[:0]}
}

// Run simulates the software-only runtime on the trace.
func Run(tr *trace.Trace, cfg Config) (*Result, error) {
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
	tm := &cfg.Timing
	g := taskgraph.Build(tr)
	n := g.N
	threads := cfg.Workers + 1 // master + workers

	res := &Result{
		Workers:  cfg.Workers,
		Baseline: tr.Baseline(),
		Start:    make([]uint64, n),
		Finish:   make([]uint64, n),
	}
	if n == 0 {
		return res, nil
	}

	classes := cfg.Classes
	if len(classes) == 0 {
		classes = sched.Single(cfg.Workers)
	}
	present := make([]bool, len(tr.Kinds)+1)
	for i := range tr.Tasks {
		present[tr.Tasks[i].Kind] = true
	}
	if err := classes.CheckCoverage(tr.Kinds, present); err != nil {
		return nil, err
	}
	var prio []uint64
	if cfg.Sched == sched.Priority {
		prio = g.BottomLevels()
	}

	s := scratchPool.Get().(*runScratch)
	s.grab(n)
	remaining := s.remaining
	submitted := s.submitted
	for i := 0; i < n; i++ {
		remaining[i] = int32(len(g.Pred[i]))
	}
	pool := &s.pool
	pool.Reset(classes, cfg.Sched, cfg.Steal, tr.Kinds, prio)

	var (
		created  int // tasks created by the master so far
		finished int
	)
	loop := &s.loop
	// Hand the (possibly grown) buffers back to the pool — error paths
	// included.
	defer scratchPool.Put(s)

	// The master starts creating the first task at cycle 0; workers park
	// idle.
	createCost := func(i int) uint64 {
		c := tr.Tasks[i].CreateCost
		if c == 0 {
			c = tm.Create
		}
		return c
	}
	loop.push(createCost(0), evMasterCreate, -1, 0)
	for w := 0; w < cfg.Workers; w++ {
		pool.Park(w)
	}

	// markReady queues a runnable task and wakes an idle worker eligible
	// for its kind, if any is parked.
	markReady := func(t int32, at uint64) {
		kind := tr.Tasks[t].Kind
		pool.Enqueue(uint32(t), kind, struct{}{})
		if w, ok := pool.WakeEligible(kind); ok {
			loop.push(at, evWorkerIdle, w, -1)
		}
	}

	for loop.events.Len() > 0 {
		if horizon := loop.events[0].at; horizon > cfg.Watchdog {
			return nil, fmt.Errorf("nanos: watchdog at cycle %d (%d/%d finished)", horizon, finished, n)
		}
		ev := loop.events.Pop()
		switch ev.kind {
		case evMasterCreate:
			t := int32(ev.task)
			hold := tm.inflate(tm.SubmitBase+uint64(len(tr.Tasks[t].Deps))*tm.SubmitPerDep, threads)
			end := loop.acquire(ev.at, hold)
			submitted[t] = true
			created++
			if remaining[t] == 0 {
				markReady(t, end)
			}
			if created < n {
				loop.push(end+createCost(created), evMasterCreate, -1, int32(created))
			}
		case evWorkerIdle:
			if !pool.CanTake(ev.who) {
				// Spurious wake-up (or nothing this worker may run): park
				// again.
				pool.Park(ev.who)
				continue
			}
			hold := tm.inflate(tm.PopHold, threads)
			end := loop.acquire(ev.at, hold)
			it, _ := pool.TakeFor(ev.who)
			t := int32(it.ID)
			res.Start[t] = end
			res.Finish[t] = end + pool.Scale(ev.who, g.Durations[t])
			loop.push(res.Finish[t], evWorkerDone, ev.who, t)
			// If more work remains visible, wake another idle worker that
			// can take it.
			if pool.Len() > 0 {
				if w, ok := pool.WakeAny(); ok {
					loop.push(end, evWorkerIdle, w, -1)
				}
			}
		case evWorkerDone:
			t := ev.task
			hold := tm.inflate(tm.ReleaseBase+uint64(len(tr.Tasks[t].Deps))*tm.ReleasePerDep, threads)
			end := loop.acquire(ev.at, hold)
			finished++
			for _, s := range g.Succ[t] {
				remaining[s]--
				if remaining[s] == 0 && submitted[s] {
					markReady(s, end)
				}
			}
			// This worker looks for more work immediately.
			loop.push(end, evWorkerIdle, ev.who, -1)
		}
	}

	if finished != n {
		return nil, fmt.Errorf("nanos: only %d/%d tasks finished (scheduler wedge)", finished, n)
	}
	res.LockBusy = loop.lockBusy
	for _, f := range res.Finish {
		if f > res.Makespan {
			res.Makespan = f
		}
	}
	if res.Makespan > 0 {
		res.Speedup = float64(res.Baseline) / float64(res.Makespan)
	}
	return res, nil
}
