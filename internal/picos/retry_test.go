package picos

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/apps"
	"repro/internal/faults"
	"repro/internal/trace"
)

// advance selects how retryDrive moves the clock between harness
// actions: the cycle-stepped oracle, or one of the two event-driven
// entry points the platform runner uses.
type advance int

const (
	advStep advance = iota
	advRunTo
	advRunToReady
)

func (a advance) String() string {
	return [...]string{"Step", "RunTo", "RunToReady"}[a]
}

// retryOutcome is everything a run exposes: the full Stats, the
// schedule, the busy counters and the two retry waste counters.
type retryOutcome struct {
	stats       Stats
	start       []uint64
	busy        BusyCycles
	refused     uint64
	arms, stale uint64
	done        int
}

// retryDrive runs tasks to completion on workers PL-side workers, HW-only
// style: everything submitted up front (tasks the avoid-deadlock check
// refuses are dropped), finished tasks notified as workers complete. The
// event-driven advances never call Step, so a missing retry arm cannot be
// papered over by an all-unit step.
func retryDrive(t *testing.T, tasks []trace.Task, cfg Config, plan func() *faults.PicosFaults, workers int, adv advance) retryOutcome {
	t.Helper()
	if plan != nil {
		cfg.Faults = plan()
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := retryOutcome{start: make([]uint64, len(tasks))}
	for i := range tasks {
		switch err := p.Submit(tasks[i].ID, tasks[i].Deps); {
		case errors.Is(err, ErrUnadmittable):
			out.done++
		case err != nil:
			t.Fatal(err)
		}
	}
	type worker struct {
		until  uint64
		task   ReadyTask
		active bool
	}
	ws := make([]worker, workers)
	finished := func() bool {
		refused := uint64(0)
		if cfg.Faults != nil {
			refused = cfg.Faults.Refused
		}
		return out.done+int(refused) >= len(tasks) && p.Idle()
	}
	for !finished() {
		now := p.Now()
		if now > 50_000_000 {
			t.Fatalf("%v: no drain by cycle %d (%d/%d done)", adv, now, out.done, len(tasks))
		}
		idle := false
		for i := range ws {
			if ws[i].active && ws[i].until <= now {
				p.NotifyFinish(ws[i].task.Handle)
				ws[i].active = false
				out.done++
			}
		}
		for i := range ws {
			if ws[i].active {
				continue
			}
			rt, ok := p.PopReady()
			if !ok {
				idle = true
				break
			}
			ws[i] = worker{until: now + tasks[rt.ID].Duration, task: rt, active: true}
			out.start[rt.ID] = now
		}
		if adv == advStep {
			p.Step()
			continue
		}
		// The next cycle the harness could act: a worker completion, or a
		// ready task turning poppable while a worker idles.
		target := uint64(noEvent)
		for i := range ws {
			if ws[i].active {
				target = min(target, ws[i].until)
			}
		}
		if at, ok := p.ReadyAt(); ok && idle {
			target = min(target, at)
		}
		if adv == advRunTo {
			if next, ok := p.NextEvent(); ok {
				target = min(target, next)
			}
		}
		if target == noEvent {
			switch _, ok := p.NextEvent(); {
			case ok:
				target = now + 1<<30
			case p.maxBusy > now:
				target = p.maxBusy // let the last busy timer run out
			default:
				t.Fatalf("%v: wedged at cycle %d (%d/%d done)", adv, now, out.done, len(tasks))
			}
		}
		target = max(target, now+1)
		if adv == advRunTo {
			p.RunTo(target)
			continue
		}
		if p.RunToReady(target); p.Now() == now {
			p.RunTo(target) // out of internal events: jump to the harness's next action
		}
	}
	out.stats = *p.Stats()
	out.busy = p.Busy()
	if cfg.Faults != nil {
		out.refused = cfg.Faults.Refused
	}
	out.arms, out.stale = p.arms, p.staleRetries
	return out
}

// scaledApp generates an application trace with task durations divided
// by div, so the accelerator rather than the workers paces the run and
// its stall paths carry the load.
func scaledApp(t *testing.T, app apps.App, problem, block int, div uint64) []trace.Task {
	t.Helper()
	res, err := apps.Generate(app, problem, block)
	if err != nil {
		t.Fatal(err)
	}
	tasks := res.Trace.Tasks
	for i := range tasks {
		tasks[i].Duration = 1 + tasks[i].Duration/div
	}
	return tasks
}

// clusteredTasks is a random trace whose dependences crowd two DM sets
// of the direct-hash designs (with spread, long tasks write 48 lines
// spread over the sets instead, so the version chains exhaust the
// version memory first). With wide set, every
// 40th task demands nine ways of one set — a task the avoid-deadlock
// policies must refuse.
func clusteredTasks(seed int64, n int, spread, wide bool) []trace.Task {
	rng := rand.New(rand.NewSource(seed))
	tasks := make([]trace.Task, n)
	for i := range tasks {
		task := trace.Task{ID: uint32(i), Duration: uint64(rng.Intn(400) + 1)}
		if wide && i%40 == 39 {
			for d := 0; d < 9; d++ {
				task.Deps = append(task.Deps, trace.Dep{Addr: sameSetAddr(d), Dir: trace.In})
			}
		} else {
			used := map[uint64]bool{}
			nd := rng.Intn(4) + 1
			if spread {
				nd += 2
				task.Duration *= 50
			}
			for d := nd; d > 0; d-- {
				addr := sameSetAddr(rng.Intn(20)) + uint64(rng.Intn(2))*4
				if spread {
					addr = 0x100000 + uint64(rng.Intn(48))*64
				}
				if !used[addr] {
					used[addr] = true
					dir := trace.Direction(rng.Intn(3))
					if spread {
						dir = trace.InOut
					}
					task.Deps = append(task.Deps, trace.Dep{Addr: addr, Dir: dir})
				}
			}
		}
		tasks[i] = task
	}
	return tasks
}

// TestRetryArmsExactAndWasteFree is the exactness and waste lock of the
// release-armed retries. For each configuration, the cycle-stepped
// oracle and both event-driven advances must produce the same Stats —
// the conflict, stall and blocking counters included — and the same
// schedule. The oracle re-fails its stalled retries every cycle; the
// event-driven loops may only re-fail one after a release armed it.
func TestRetryArmsExactAndWasteFree(t *testing.T) {
	sparselu := scaledApp(t, apps.SparseLu, 2048, 64, 64)
	cholesky := scaledApp(t, apps.Cholesky, 1024, 64, 64)
	clustered := clusteredTasks(5, 1200, false, false)
	spread := clusteredTasks(5, 800, true, false)
	wide := clusteredTasks(5, 1200, false, true)
	leaky := func() *faults.PicosFaults {
		plan, err := faults.ParsePlan("dct:creditleak=0.05@seed6")
		if err != nil {
			t.Fatal(err)
		}
		return plan.PicosSide(faults.Recovery{Degrade: 3000})
	}
	cfgWith := func(edit func(*Config)) Config {
		cfg := DefaultConfig()
		edit(&cfg)
		return cfg
	}
	var total retryOutcome // the configurations together must exercise every counter
	for _, tc := range []struct {
		name    string
		tasks   []trace.Task
		cfg     Config
		plan    func() *faults.PicosFaults
		workers int
	}{
		{"sparselu64-8way", sparselu, cfgWith(func(c *Config) { c.Design = DM8Way }), nil, 12},
		{"cholesky-block", cholesky, cfgWith(func(c *Config) { c.Design = DM8Way; c.Conflict = ConflictBlock }), nil, 12},
		{"dct4", sparselu, cfgWith(func(c *Config) { c.NumDCT = 4 }), nil, 12},
		{"slots-only", clustered, cfgWith(func(c *Config) { c.Design = DM8Way; c.Admission = AdmitSlotsOnly }), nil, 4},
		{"slots-only-vm", spread, cfgWith(func(c *Config) { c.Admission = AdmitSlotsOnly }), nil, 4},
		{"creditleak-degrade", sparselu, cfgWith(func(c *Config) { c.Design = DM8Way }), leaky, 12},
		{"avoid-deadlock", wide, cfgWith(func(c *Config) { c.Design = DM8Way; c.Admission = AdmitAvoidDeadlock }), nil, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref := retryDrive(t, tc.tasks, tc.cfg, tc.plan, tc.workers, advStep)
			st := ref.stats
			total.stats.DMConflictStallCycles += st.DMConflictStallCycles
			total.stats.VMStallCycles += st.VMStallCycles
			total.stats.GWBlockedCycles += st.GWBlockedCycles
			total.refused += ref.refused
			if st.DMConflictStallCycles+st.VMStallCycles+st.GWBlockedCycles == 0 {
				t.Fatalf("workload never stalls or blocks: %+v", st)
			}
			if ref.stale <= ref.arms {
				t.Errorf("oracle re-failed %d retries against %d arms; the workload does not exercise the waste", ref.stale, ref.arms)
			}
			for _, adv := range []advance{advRunTo, advRunToReady} {
				got := retryDrive(t, tc.tasks, tc.cfg, tc.plan, tc.workers, adv)
				if got.stats != ref.stats {
					t.Fatalf("%v stats diverge from Step:\nstep: %+v\n%v: %+v", adv, ref.stats, adv, got.stats)
				}
				for id := range got.start {
					if got.start[id] != ref.start[id] {
						t.Fatalf("%v: task %d starts at %d, Step starts it at %d", adv, id, got.start[id], ref.start[id])
					}
				}
				if got.busy.GW != ref.busy.GW || got.busy.TS != ref.busy.TS || got.busy.Arb != ref.busy.Arb || got.refused != ref.refused {
					t.Fatalf("%v: busy/refusal counters diverge: %+v/%d vs %+v/%d", adv, got.busy, got.refused, ref.busy, ref.refused)
				}
				if got.stale > got.arms {
					t.Errorf("%v re-failed %d stalled retries with only %d arming releases", adv, got.stale, got.arms)
				}
			}
		})
	}
	if st := total.stats; st.DMConflictStallCycles == 0 || st.VMStallCycles == 0 || st.GWBlockedCycles == 0 || total.refused == 0 {
		t.Errorf("configurations leave a stall counter or degrade refusals unexercised: %+v, %d refused", st, total.refused)
	}
}
