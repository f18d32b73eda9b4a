package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"

	_ "repro/internal/engines"
	"repro/internal/sim"
	"repro/internal/trace"
)

// defaultSeed is the seed the digests in digests.json were pinned at.
const defaultSeed = 1

// pin is the expected outcome of one op at the default seed: the number
// of tasks its workload submits and the digest of its simulated result.
type pin struct {
	Tasks  int    `json:"tasks"`
	Digest string `json:"digest"`
}

//go:embed digests.json
var digestsJSON []byte

func loadPins() (map[string]pin, error) {
	var pins map[string]pin
	if err := json.Unmarshal(digestsJSON, &pins); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return pins, nil
}

// outcome is what one op produced: the tasks its workload submitted, the
// simulated result, and the first error of the op or its checks.
type outcome struct {
	tasks int
	res   *sim.Result
	err   error
}

// execute runs one op, with a span around each call into a layer. A nil
// tracer records nothing.
func execute(o op, tr *tracer) outcome {
	if o.stream {
		s := tr.begin(layerBuild)
		src, err := sim.BuildWorkloadSource(o.spec)
		tr.end(s, 0, 0)
		if err != nil {
			return outcome{err: err}
		}
		cs := &countingSource{Source: src}
		s = tr.begin(engineLayer(o.spec.Engine))
		res, err := sim.RunSource(cs, o.spec)
		tr.end(s, cs.pulled, depsProcessed(res))
		return outcome{tasks: cs.pulled, res: res, err: err}
	}
	s := tr.begin(layerBuild)
	t, err := sim.BuildWorkload(o.spec)
	if err != nil {
		tr.end(s, 0, 0)
		return outcome{err: err}
	}
	n := len(t.Tasks)
	tr.end(s, n, 0)
	s = tr.begin(engineLayer(o.spec.Engine))
	res, err := sim.RunTrace(t, o.spec)
	tr.end(s, n, depsProcessed(res))
	if err != nil {
		return outcome{tasks: n, err: err}
	}
	s = tr.begin(layerVerify)
	err = sim.Verify(t, res)
	tr.end(s, n, 0)
	if err != nil {
		err = fmt.Errorf("verify: %w", err)
	}
	return outcome{tasks: n, res: res, err: err}
}

// depsProcessed is the number of dependences the accelerator registered
// in a run, 0 for the engines without one.
func depsProcessed(res *sim.Result) int {
	if res == nil || res.Stats == nil {
		return 0
	}
	return int(res.Stats.DepsProcessed)
}

// countingSource counts the descriptors an engine pulls from a streamed
// workload since its last rewind, which is the streamed op's submitted
// task count.
type countingSource struct {
	trace.Source
	pulled int
}

func (c *countingSource) Next() (trace.Task, bool) {
	t, ok := c.Source.Next()
	if ok {
		c.pulled++
	}
	return t, ok
}

func (c *countingSource) Rewind() error {
	c.pulled = 0
	return c.Source.Rewind()
}

// Err forwards the wrapped source's mid-stream error, so wrapping does
// not hide it from the engine.
func (c *countingSource) Err() error { return trace.SourceErr(c.Source) }

// check returns why an op's output is wrong, or nil. Pins are checked
// for every op that has one; with requirePin (the default seed) every op
// must have one.
func check(o op, out outcome, pins map[string]pin, requirePin bool) error {
	if out.err != nil {
		return out.err
	}
	res := out.res
	if res.TimedOut {
		return errors.New("timed out")
	}
	if res.Stats != nil && res.Stats.ProtocolErrors > 0 {
		return fmt.Errorf("%d protocol errors", res.Stats.ProtocolErrors)
	}
	if done := completed(res, out.tasks); done+res.LostTasks+res.RefusedTasks != out.tasks {
		return fmt.Errorf("task accounting: %d completed + %d lost + %d refused != %d submitted",
			done, res.LostTasks, res.RefusedTasks, out.tasks)
	}
	p, ok := pins[o.label]
	if !ok {
		if requirePin {
			return errors.New("no pinned digest")
		}
		return nil
	}
	if p.Tasks != out.tasks {
		return fmt.Errorf("%d tasks submitted, pinned %d", out.tasks, p.Tasks)
	}
	if d := digest(res); d != p.Digest {
		return fmt.Errorf("result digest %s, pinned %s", d, p.Digest)
	}
	return nil
}

// completed counts the tasks a run finished: the accelerator's own
// counter, else the finished entries of the schedule. A streamed
// software-runtime result carries neither; that runtime has no path that
// drops a task, so it finished every task it pulled (or timed out, which
// check catches first).
func completed(res *sim.Result, submitted int) int {
	if res.Stats != nil {
		return int(res.Stats.TasksCompleted)
	}
	if res.Finish == nil {
		return submitted
	}
	n := 0
	for _, f := range res.Finish {
		if f > 0 {
			n++
		}
	}
	return n
}

// digest hashes the simulated outcome of a run: makespan, first start,
// wedge flag, the accelerator counters and the runtime lock time. The
// counters are named one by one so that a counter added later does not
// change the digest of an unchanged run.
func digest(res *sim.Result) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d %d %t %d", res.Makespan, res.FirstStart, res.Wedged, res.LockBusy)
	if st := res.Stats; st != nil {
		fmt.Fprintf(h, " %d %d %d %d %d %d %d %d %d %d %d %d %d",
			st.TasksSubmitted, st.TasksAdmitted, st.TasksCompleted, st.DepsProcessed,
			st.DMConflicts, st.DMConflictStallCycles, st.VMStallEvents, st.VMStallCycles,
			st.GWBlockedCycles, st.WakesRouted, st.MaxInFlightTasks, st.MaxVMLive, st.ProtocolErrors)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// pinAll runs every op of every workload once at the default seed and
// returns their pins, for regenerating digests.json.
func pinAll() (map[string]pin, error) {
	pins := map[string]pin{}
	for _, w := range workloads {
		for _, o := range w.ops(defaultSeed) {
			out := execute(o, nil)
			if err := check(o, out, nil, false); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", w.name, o.label, err)
			}
			pins[o.label] = pin{Tasks: out.tasks, Digest: digest(out.res)}
		}
	}
	return pins, nil
}
