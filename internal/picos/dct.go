package picos

// dctUnit is one Dependence Chain Tracker: it performs address matching
// in the Dependence Memory, maintains version chains in the Version
// Memory, and emits ready/dependent/wake packets (Sections III-A/C/D).
type dctUnit struct {
	id     uint8
	p      *Picos
	dm     *depMemory
	vm     *versionMemory
	timing *Timing

	// Inputs.
	newDepQ regFIFO[newDepPkt]    // from GW (N4)
	finQ    regFIFO[finishDepPkt] // from TRS via ARB (F3)

	// Head-of-line stall state for newDepQ: a dependence that cannot be
	// stored blocks the queue — and with it, registration of every later
	// dependence routed here — until a release frees space. Under the
	// default ConflictSidetrack policy only VM exhaustion and second-set
	// conflicts stall the head this way; a first DM-set conflict parks in
	// the sidetrack register below instead. stall records which per-cycle
	// counter the retries feed, so a fast-forwarded stretch can
	// batch-account exactly what the cycle-by-cycle retries would have.
	headStalled     bool
	conflictCounted bool
	stall           stallKind

	// Conflict sidetrack register (ConflictSidetrack): one dependence
	// whose DM set was full, parked out of the queue so registration of
	// later dependences keeps flowing. The parked dependence retries
	// every cycle with strict priority over the queue, which preserves
	// program order per address (a later dependence on the same address
	// maps to the same — still full — set and can never overtake) and
	// keeps the set closed to younger insertions, so the head-of-line
	// deadlock-freedom argument carries over unchanged. parkedStall
	// records why the last retry failed (the set may drain into a VM
	// shortage), for the same batch-accounting as the head stall.
	hasParked   bool
	parked      newDepPkt
	parkedSet   int
	parkedStall stallKind
	// retry is armed by a release (the only event that frees a DM way or
	// a VM slot) while a head is stalled or a dependence is parked, and
	// cleared by the next registration step that attempts the retry. A
	// release normally lands in the step that retries, so the flag
	// outlives a step only when the registration engine is busy: it then
	// puts busyUntil on the horizon, and the fast path wakes for the
	// retry the per-cycle reference loop performs there (and that may
	// now succeed).
	retry bool

	busyUntil    uint64 // registration engine
	busyUntilFin uint64 // release engine (overlapped in the prototype)
	busy         uint64
	hid          int32 // horizon key slot
}

// stallKind labels why a dependence cannot be stored, i.e. which Stats
// counter every retry cycle feeds.
type stallKind uint8

const (
	stallNone   stallKind = iota
	stallVMFull           // version memory exhausted (VMStallCycles)
	stallDMSet            // DM set full (DMConflictStallCycles)
)

func newDCT(id uint8, p *Picos) *dctUnit {
	design := p.cfg.Design
	return &dctUnit{
		id:     id,
		p:      p,
		dm:     newDepMemory(design, shardSets(p.cfg.NumDCT)),
		vm:     newVersionMemory(shardCapacity(design, p.cfg.NumDCT)),
		timing: &p.cfg.Timing,
	}
}

// reset scrubs the unit back to its just-built state: the dependence and
// version memories are cleared in place and only reallocated when the
// design or the shard count changes their shape (associativity and the
// shard's partition of sets size both).
func (u *dctUnit) reset(design DMDesign) {
	sets := shardSets(u.p.cfg.NumDCT)
	if u.dm.ways != design.Ways() || u.dm.numSets != sets {
		u.dm = newDepMemory(design, sets)
	} else {
		u.dm.reset()
		u.dm.design = design
	}
	if capacity := shardCapacity(design, u.p.cfg.NumDCT); len(u.vm.entries) != capacity {
		u.vm = newVersionMemory(capacity)
	} else {
		u.vm.reset()
	}
	u.newDepQ.reset()
	u.finQ.reset()
	u.headStalled, u.conflictCounted, u.stall = false, false, stallNone
	u.hasParked, u.parked, u.parkedSet, u.parkedStall = false, newDepPkt{}, 0, stallNone
	u.retry = false
	u.busyUntil, u.busyUntilFin, u.busy = 0, 0, 0
}

// sidetracked reports whether the conflict sidetrack is enabled.
func (u *dctUnit) sidetracked() bool { return u.p.cfg.Conflict == ConflictSidetrack }

func (u *dctUnit) step(now uint64) {
	// Release engine: frees DM ways and VM entries — including the very
	// stalls blocking the registration path — without costing
	// registration throughput.
	released := false
	for u.busyUntilFin <= now {
		pkt, ok := u.finQ.pop(now)
		if !ok {
			break
		}
		released = true
		u.p.markDirty(u.hid)
		u.handleFinish(pkt, now)
	}
	if u.busyUntil <= now {
		u.register(now, released)
	}
	// A dependence still parked or stalled charges the cycle its retry
	// failed (or, behind a busy engine, could not run); skipTo and
	// stepDue charge the cycles they skip the same way.
	u.chargeStall(1)
}

// register runs one cycle of the free registration engine. The parked
// dependence retries first, with priority over the queue, then the
// queue head registers, parks or stalls.
func (u *dctUnit) register(now uint64, released bool) {
	if u.retry {
		u.retry = false
		u.p.markDirty(u.hid)
	}
	// A step that neither released nor registered anything and only
	// re-failed a retry is waste the fast path avoids; count it.
	stale := !released && (u.hasParked || u.headStalled)
	if u.hasParked {
		if kind := u.tryNewDep(u.parked, now); kind == stallNone {
			u.hasParked = false
			u.parked = newDepPkt{}
			// The head (possibly stalled behind this very set) is
			// re-attempted once the engine frees; put it back on the
			// horizon so the fast path wakes for that attempt. Its
			// conflictCounted marker survives so a re-stall does not
			// count the same dependence twice.
			u.headStalled = false
			u.stall = stallNone
			u.p.markDirty(u.hid)
			stale = false
		} else {
			u.parkedStall = kind
		}
	}
	for u.busyUntil <= now {
		pkt, ok := u.newDepQ.peek(now)
		if !ok {
			break
		}
		kind := u.tryNewDep(pkt, now)
		if kind == stallNone {
			u.newDepQ.pop(now)
			u.headStalled = false
			u.conflictCounted = false
			u.stall = stallNone
			stale = false
			continue
		}
		if kind == stallDMSet && u.sidetracked() && !u.hasParked {
			// Park the conflict and keep registering: the dependence
			// found its set full — one DM conflict, counted unless this
			// head was already counted while waiting on a different set —
			// and moves to the sidetrack so later dependences (which the
			// creation pipeline keeps delivering) still flow.
			u.newDepQ.pop(now)
			u.hasParked = true
			u.parked = pkt
			u.parkedSet = u.dm.index(pkt.addr)
			u.parkedStall = stallDMSet
			if !u.conflictCounted {
				u.p.stats.DMConflicts++
			}
			u.headStalled = false
			u.conflictCounted = false
			u.stall = stallNone
			u.p.markDirty(u.hid)
			u.busyUntil = now + 1
			u.p.noteBusy(u.busyUntil)
			return
		}
		// Stalled: retry next cycle, and drop the head from the horizon —
		// only a release can make the retry succeed.
		if !u.headStalled {
			u.headStalled = true
			u.p.markDirty(u.hid)
			stale = false
		}
		if kind == stallVMFull {
			if !u.conflictCounted {
				u.p.stats.VMStallEvents++
				u.conflictCounted = true
			}
		} else if !u.conflictCounted && (!u.sidetracked() || u.dm.index(pkt.addr) != u.parkedSet) {
			// A head conflicting while the sidetrack is occupied waits in
			// order. If it waits on a different set than the parked
			// dependence, that is a distinct saturated set — a conflict of
			// its own; the same set is the episode the sidetrack already
			// counted (the head inherits it when the slot frees, without
			// recounting).
			u.p.stats.DMConflicts++
			u.conflictCounted = true
		}
		u.stall = kind
		u.busyUntil = now + 1
		u.p.noteBusy(u.busyUntil)
		break
	}
	if stale {
		u.p.staleRetries++
	}
}

// chargeStall charges delta cycles of the per-cycle stall a parked
// dependence and a stalled head accrue while their retries re-fail: DM
// conflict or VM shortage, whichever their last retry hit.
//
//picos:hotpath
func (u *dctUnit) chargeStall(delta uint64) {
	st := &u.p.stats
	if u.hasParked {
		if u.parkedStall == stallVMFull {
			st.VMStallCycles += delta
		} else {
			st.DMConflictStallCycles += delta
		}
	}
	if u.headStalled {
		if u.stall == stallVMFull {
			st.VMStallCycles += delta
		} else {
			st.DMConflictStallCycles += delta
		}
	}
}

func (u *dctUnit) consume(now, cost uint64) uint64 {
	if f := u.p.cfg.Faults; f != nil {
		cost = f.ScaleDCT(int(u.id), cost)
	}
	u.busyUntil = now + cost
	u.busy += cost
	u.p.markDirty(u.hid)
	u.p.noteBusy(u.busyUntil)
	return u.busyUntil
}

// egress stamps a packet leaving this shard: shard k sits k fabric
// registers away from the arbiter port, so its outbound traffic pays
// k shard hops before it is routable. Shard 0 (every single-DCT build)
// pays nothing.
func (u *dctUnit) egress(at uint64) uint64 {
	return at + uint64(u.id)*u.timing.ShardHop
}

func (u *dctUnit) sendStatus(pkt depStatusPkt, at uint64) {
	u.p.arb.route(arbMsg{kind: arbStat, stat: pkt}, u.egress(at))
}

func (u *dctUnit) sendWake(pkt wakePkt, at uint64) {
	u.p.arb.route(arbMsg{kind: arbWake, wake: pkt}, u.egress(at))
}

// tryNewDep registers one dependence (flow N5). It returns stallNone on
// success, or the reason the dependence cannot be stored yet (DM set
// full or VM capacity); the caller decides whether that stalls the queue
// head or parks in the sidetrack, and does the stall accounting.
func (u *dctUnit) tryNewDep(pkt newDepPkt, now uint64) stallKind {
	st := &u.p.stats
	ref, hit, room := u.dm.probe(pkt.addr)
	if hit {
		e := u.dm.at(ref)
		tailIdx := e.tail
		tail := u.vm.at(tailIdx)
		if pkt.dir.Writes() {
			// New producer: open a new version behind the current one.
			idx, ok := u.vm.alloc()
			if !ok {
				return stallVMFull
			}
			nv := u.vm.at(idx)
			nv.dm = ref
			nv.hasProducer = true
			nv.producer = pkt.task
			tail.hasNext = true
			tail.next = idx
			e.tail = idx
			e.count++
			e.input = false
			done := u.consume(now, u.timing.DCTNewDep)
			nv.statusAt = done + u.timing.DCTPipe
			u.sendStatus(depStatusPkt{
				task: pkt.task, depIdx: pkt.depIdx,
				vm: VMAddr{DCT: u.id, Idx: idx},
			}, done+u.timing.DCTPipe)
		} else {
			// Consumer of the newest version.
			tail.numConsumers++
			done := u.consume(now, u.timing.DCTNewDep)
			tail.statusAt = done + u.timing.DCTPipe
			status := depStatusPkt{
				task: pkt.task, depIdx: pkt.depIdx,
				vm: VMAddr{DCT: u.id, Idx: tailIdx},
			}
			if tail.producerDone {
				// The value already exists (or the chain is input-only).
				status.ready = true
			} else if u.p.cfg.Wake == WakeFirstFirst {
				// Ablation: chains point forward; the previous tail gets
				// a wake pointer to the new consumer.
				if tail.chainLen == 0 {
					tail.chainHead = pkt.task
				} else {
					u.sendStatus(depStatusPkt{
						task: tail.chainTail, vm: VMAddr{DCT: u.id, Idx: tailIdx},
						setWake: true, hasWake: true, wakeTask: pkt.task,
					}, now+u.timing.DCTPipe)
				}
				tail.chainTail = pkt.task
				tail.chainLen++
			} else {
				// Chain behind the previous last consumer: the paper's
				// dependent packet carries the wake pointer, and the new
				// consumer becomes the chain tail kept in the VM.
				if tail.chainLen > 0 {
					status.hasWake = true
					status.wakeTask = tail.chainTail
				}
				tail.chainTail = pkt.task
				tail.chainLen++
			}
			u.sendStatus(status, done+u.timing.DCTPipe)
		}
		st.DepsProcessed++
		return stallNone
	}

	// Miss: first live appearance of the address. VM exhaustion is
	// reported before a full set.
	if u.vm.freeCount() == 0 {
		return stallVMFull
	}
	if !room {
		return stallDMSet
	}
	idx, _ := u.vm.alloc()
	*u.dm.at(ref) = dmEntry{valid: true, input: !pkt.dir.Writes(), tag: pkt.addr, head: idx, tail: idx, count: 1}
	nv := u.vm.at(idx)
	nv.dm = ref
	if pkt.dir.Writes() {
		nv.hasProducer = true
		nv.producer = pkt.task
	} else {
		// Input-only so far: vacuously "produced".
		nv.producerDone = true
		nv.numConsumers = 1
	}
	done := u.consume(now, u.timing.DCTNewDep)
	nv.statusAt = done + u.timing.DCTPipe
	u.sendStatus(depStatusPkt{
		task: pkt.task, depIdx: pkt.depIdx,
		vm:    VMAddr{DCT: u.id, Idx: idx},
		ready: true,
	}, done+u.timing.DCTPipe)
	st.DepsProcessed++
	if live := u.vm.live(); live > st.MaxVMLive {
		st.MaxVMLive = live
	}
	return stallNone
}

// handleFinish releases one dependence of a finished task (F4): mark the
// producer done (waking the last consumer) or count a consumer finish;
// when the version drains, wake the next version's producer and recycle
// the entries.
func (u *dctUnit) handleFinish(pkt finishDepPkt, now uint64) {
	cost := u.timing.DCTFinDep
	leakCredit := false
	if f := u.p.cfg.Faults; f != nil {
		cost = f.ScaleDCT(int(u.id), cost)
		leakCredit = f.LeakCredit(int(u.id))
	}
	done := now + cost
	u.busyUntilFin = done
	u.busy += cost
	u.p.noteBusy(done)
	if !leakCredit {
		u.p.gw.returnCredit(u.id)
	}
	if u.headStalled || u.hasParked {
		// This release may free the stalled or parked dependence's set or
		// VM slot: arm the retry (see retry).
		u.retry = true
		u.p.arms++
		u.p.markDirty(u.hid)
	}
	v := u.vm.at(pkt.vm.Idx)
	if !v.used {
		u.p.stats.ProtocolErrors++
		return
	}
	if v.hasProducer && !v.producerDone && v.producer == pkt.task {
		v.producerDone = true
		if v.chainLen > 0 {
			// Wake the chain: from the last consumer under the paper's
			// design (Figure 5, link 1), from the first under the
			// ablation order. The wake leaves as soon as the VM read
			// resolves the target; the recycle write-back below proceeds
			// on the engine timer (busyUntilFin) concurrently.
			entry := v.chainTail
			if u.p.cfg.Wake == WakeFirstFirst {
				entry = v.chainHead
			}
			u.sendWake(wakePkt{task: entry, vm: pkt.vm}, max(now+u.timing.DCTPipe, v.statusAt))
			u.p.stats.WakesRouted++
		}
	} else {
		v.finished++
	}
	if v.complete() {
		u.completeVersion(pkt.vm.Idx, now)
	}
}

// completeVersion recycles a drained version: advance the DM entry to the
// next version (waking its producer) or free the DM entry when this was
// the last one.
func (u *dctUnit) completeVersion(idx uint16, at uint64) {
	v := u.vm.at(idx)
	e := u.dm.at(v.dm)
	if v.hasNext {
		nv := u.vm.at(v.next)
		u.sendWake(wakePkt{task: nv.producer, vm: VMAddr{DCT: u.id, Idx: v.next}}, max(at+u.timing.DCTPipe, nv.statusAt))
		u.p.stats.WakesRouted++
		e.head = v.next
		e.count--
	} else {
		u.dm.free(v.dm)
	}
	if f := u.p.cfg.Faults; f != nil && f.LeakVM(int(u.id)) {
		// Version-slot leak: the write-back that recycles this VM entry
		// is lost, so the slot stays occupied for the rest of the run —
		// capacity pressure the credit pool never sees.
		return
	}
	u.vm.release(idx)
}

// nextEvent returns the earliest cycle at which the DCT can make
// progress on its own: a release on the finish engine, a registration
// on the new-dependence engine, or an armed retry waiting for the
// engine to free. A stalled head and a parked sidetrack dependence are
// otherwise excluded — their retries cannot succeed until a release (an
// event in its own right) frees space, and the stall cycles they would
// burn in between are charged by chargeStall using the recorded stall
// kinds.
func (u *dctUnit) nextEvent() (uint64, bool) {
	next, ok := uint64(0), false
	if at, qok := u.finQ.headAt(); qok {
		next, ok = max(at, u.busyUntilFin), true
	}
	if at, qok := u.newDepQ.headAt(); qok && !u.headStalled {
		if c := max(at, u.busyUntil); !ok || c < next {
			next, ok = c, true
		}
	}
	if u.retry && (!ok || u.busyUntil < next) {
		next, ok = u.busyUntil, true
	}
	return next, ok
}
