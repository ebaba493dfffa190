package core

import (
	"paella/internal/gpu"
	"paella/internal/rbtree"
	"paella/internal/sched"
	"paella/internal/sim"
	"paella/internal/trace"
)

// Dynamic batching (perf extension of §6's software-defined dispatch):
// same-model jobs whose cursors sit at the same kernel position coalesce
// into one batched launch with a widened grid (blocks × batch size) and the
// profiled sub-linear per-block batch curve (compiler.Profile.BatchScale).
// Formation is scheduler-driven — the policy's pick stays the batch head,
// partners ride along in request-id order — and SLO-aware: a lone ready
// kernel may be held open for partners only while the ready queue is deep
// enough to pay for the wait and the hold fits inside the head's deadline
// slack. Everything here is inert unless Config.MaxBatch > 1; the disabled
// dispatch path is byte-identical to the unbatched dispatcher.
//
// Batches formed here live for one launch: the group drains as a unit.
// The generative engine (internal/llm, DESIGN.md §10) lifts that rule to
// iteration boundaries — continuous batching rebuilds the decode batch
// after every completed iteration, reusing this file's fairness semantics
// via sched.BatchDispatched and the same profiled batch curve.

// batchSlot is one kernel position of one registered model: every job
// there launches a clone of the same spec, so the jobs ready at a slot are
// batch partners. A slot keeps its ready tree (in request-id order; kept,
// empty, between uses), the job held open for partners there (at most
// one), and the widened clones of its kernel by batch width. A job reaches
// its slot as j.slots[j.cursor]: an index, not a hashed key.
type batchSlot struct {
	ready *rbtree.Tree[*Job]
	held  *Job
	// specs[n] is the kernel widened to n members, made on first use.
	// Positions that launch the same kernel share one specs slice, so a
	// kernel has one widened clone per width, whichever position formed it.
	specs []*gpu.KernelSpec
}

// newBatchSlots returns the batch slots of a model whose jobs follow ops,
// for batches of up to maxBatch members.
func newBatchSlots(ops []jobOp, maxBatch int) []batchSlot {
	slots := make([]batchSlot, len(ops))
	widened := make(map[*gpu.KernelSpec][]*gpu.KernelSpec)
	for i, op := range ops {
		if op.kind != opKernel {
			continue
		}
		w := widened[op.spec]
		if w == nil {
			w = make([]*gpu.KernelSpec, maxBatch+1)
			widened[op.spec] = w
		}
		slots[i].specs = w
	}
	return slots
}

// batchTraceBase offsets batch async-span ids away from request ids.
const batchTraceBase uint64 = 1 << 32

func byRequestID(a, b *Job) bool { return a.Req.ID < b.Req.ID }

// slot returns the batch slot of the job's current op.
func (j *Job) slot() *batchSlot { return &j.slots[j.cursor] }

// policyAdd makes the job visible to the picker and, when batching is on,
// to its batch slot. All gated model-path Add sites route through here
// (adaptor jobs have no slots: their waitlists keep their own reconcile
// path and never batch).
func (d *Dispatcher) policyAdd(j *Job) {
	d.cfg.Policy.Add(&j.entry)
	j.inPolicy = true
	j.readyAt = d.env.Now()
	if j.slots != nil {
		d.joinSlot(j)
	}
}

// policyRemove hides the job from the picker and tears down its batching
// state (slot membership and any open hold).
func (d *Dispatcher) policyRemove(j *Job) {
	d.cfg.Policy.Remove(&j.entry)
	j.inPolicy = false
	if j.batchNode.Attached() {
		d.releaseHold(j)
		j.slot().ready.Delete(j.batchNode)
	}
}

// joinSlot files the ready job in its slot, re-inserting the job's
// detached node when it has one. A partner arriving is what a held job
// has been waiting for: the hold releases and the next dispatch pass forms
// the batch.
func (d *Dispatcher) joinSlot(j *Job) {
	s := j.slot()
	if s.ready == nil {
		s.ready = rbtree.New(byRequestID)
	}
	if j.batchNode == nil {
		j.batchNode = s.ready.Insert(j)
	} else {
		s.ready.InsertNode(j.batchNode)
	}
	if held := s.held; held != nil && held != j {
		d.releaseHold(held)
		d.wakeNow()
	}
}

// releaseHold reopens a held job for dispatch (a partner arrived, or the
// job is leaving the policy altogether). The wait is attributed to the
// job's record; the generation bump disarms the pending expiry timer.
func (d *Dispatcher) releaseHold(j *Job) {
	if !j.held {
		return
	}
	j.held = false
	j.holdGen++
	j.rec.BatchWaitNs += d.env.Now() - j.holdStart
	// Restart the head-of-line clock: the hold is already attributed as
	// batch wait, so the HoL gap must not double-count it.
	j.readyAt = d.env.Now()
	j.slot().held = nil
}

// expireHold is the hold timer's landing: the window closed partnerless,
// so the job dispatches solo (noHold keeps it from re-arming until it has
// actually dispatched once).
func (d *Dispatcher) expireHold(j *Job, gen uint64) {
	if !j.held || j.holdGen != gen {
		return // released by a partner, dispatched, or superseded
	}
	j.held = false
	j.holdGen++
	j.noHold = true
	j.rec.BatchWaitNs += d.env.Now() - j.holdStart
	j.readyAt = d.env.Now()
	j.slot().held = nil
	d.wakeNow()
}

// holdExpired is the hold timer's payload: ctx is the held Job, arg the
// hold generation it was armed with — a typed event instead of a closure
// per hold.
var holdExpired sim.EventFn = func(ctx any, arg uint64) {
	j := ctx.(*Job)
	j.conn.d.expireHold(j, arg)
}

// batchHoldWindow sizes the adaptive formation window for a lone ready
// kernel: zero (dispatch now) when holds are disabled or the ready queue is
// shallow; otherwise a wait that grows with queue depth — deeper backlog
// means partners are likelier to arrive in time — capped at BatchWindow and
// at half the job's deadline slack, so batching never spends latency an SLO
// cannot afford.
func (d *Dispatcher) batchHoldWindow(j *Job) sim.Time {
	if d.cfg.BatchWindow <= 0 {
		return 0
	}
	minDepth := 2 * d.cfg.MaxBatch
	depth := d.cfg.Policy.Len()
	if depth < minDepth {
		return 0
	}
	wait := d.cfg.BatchWindow * sim.Time(depth) / sim.Time(2*minDepth)
	if wait > d.cfg.BatchWindow {
		wait = d.cfg.BatchWindow
	}
	if j.entry.Deadline > 0 {
		slack := j.entry.Deadline - d.env.Now() - j.entry.Remaining
		if slack <= 0 {
			return 0
		}
		if wait > slack/2 {
			wait = slack / 2
		}
	}
	return wait
}

// tryBatch is the dispatch loop's batching gate for a picked, fitting job.
// It either dispatches the job as the head of a batched launch (partners
// ready now), holds it open for partners (adaptive window), or reports
// false so the caller releases it solo.
func (d *Dispatcher) tryBatch(j *Job) bool {
	if !j.batchNode.Attached() {
		return false
	}
	s := j.slot()
	if t := s.ready; t.Len() >= 2 {
		members := append(d.batchScratch[:0], j)
		for n := t.Min(); n != nil && len(members) < d.cfg.MaxBatch; n = n.Next() {
			if p := n.Item; p != j {
				members = append(members, p)
			}
		}
		// Keep the widened grid inside the §6 dispatch budget: the batch may
		// occupy headroom plus the overshoot allowance, never less than the
		// solo launch the gate already admitted.
		base := j.currentKernel()
		if nCap := (d.mirror.headroomBlocks() + d.mirror.overshoot) / base.Blocks; nCap < len(members) {
			if nCap < 1 {
				nCap = 1
			}
			members = members[:nCap]
		}
		if len(members) >= 2 {
			d.dispatchBatch(s, members)
			return true
		}
		return false
	}
	// Alone at its slot: consider holding the window open for partners.
	if j.noHold {
		return false
	}
	wait := d.batchHoldWindow(j)
	if wait <= 0 {
		return false
	}
	j.held = true
	j.holdGen++
	gen := j.holdGen
	j.holdStart = d.env.Now()
	s.held = j
	d.stats.BatchHolds++
	d.env.DoCallAfter(wait, holdExpired, j, gen)
	return true
}

// batchedSpec returns the slot's widened clone of head's current kernel
// for width n, made on first use with the profiled batch curve.
func batchedSpec(s *batchSlot, head *Job, n int) *gpu.KernelSpec {
	if s.specs[n] == nil {
		base := head.currentKernel()
		s.specs[n] = base.Batched(n, head.Ins.Profile.BatchScale(base.Name, n))
	}
	return s.specs[n]
}

// dispatchBatch releases one batched kernel launch covering every member.
// The per-decision dispatch cost was charged once by the loop — that
// amortization is the dispatcher-side win — and is attributed to members
// pro rata. Fairness accounting still charges every member's client
// (sched.BatchDispatched), and the launch's SRPT position is the
// pessimistic member's (sched.BatchRemaining).
func (d *Dispatcher) dispatchBatch(s *batchSlot, members []*Job) {
	head := members[0]
	n := len(members)
	bspec := batchedSpec(s, head, n)
	now := d.env.Now()

	entries := d.entryScratch[:0]
	for _, m := range members {
		entries = append(entries, &m.entry)
	}
	sched.BatchDispatched(d.cfg.Policy, entries)
	batchRem := sched.BatchRemaining(entries)

	perJobSched := (d.cfg.SchedDelay + d.cfg.DispatchCost) / sim.Time(n)
	for _, m := range members {
		d.policyRemove(m)
		m.noHold = false
		if m.rec.FirstDispatch == 0 {
			m.rec.FirstDispatch = now
		} else if m.readyAt > 0 {
			m.rec.HoLNs += now - m.readyAt
		}
		m.readyAt = 0
		m.rec.SchedNs += perJobSched
		if m.rec.BatchSize < n {
			m.rec.BatchSize = n
		}
		m.kernelsInFlight++
		if m.isFinalGPUOp() {
			d.ringBell(m)
		}
	}

	d.nextKernelID++
	kid := d.nextKernelID
	fl := d.newInflight()
	fl.job, fl.spec, fl.sentAt = head, bspec, now
	fl.members = append(fl.members[:0], members...)
	d.inflight.put(kid, fl)
	d.mirror.Reserve(bspec)
	d.stats.KernelsSent++
	d.stats.Batches++
	d.stats.BatchedJobs += uint64(n)
	d.mt.Observe(d.mtBatchW, now, float64(n))
	if d.rec != nil {
		d.rec.InstantArgs(d.schedTrack, bspec.Name, "batch-dispatch", now,
			trace.Int("size", int64(n)),
			trace.Int("head", int64(head.Req.ID)),
			trace.Int("kernel_id", int64(kid)),
			trace.Str("policy", d.cfg.Policy.Name()),
			trace.Int("batch_remaining_ns", int64(batchRem)))
	}
	d.traceCounters()
	d.queueCursor = (d.queueCursor + 1) % d.dev.NumQueues()
	l := d.newLaunch()
	l.Spec, l.KernelID, l.JobTag, l.NotifGroup = bspec, kid, head.Req.Model, head.Ins.NotifGroup
	fl.launch = l
	d.dev.Submit(d.queueCursor, l)
	if d.cfg.KernelTimeout > 0 {
		bound := sim.Time(bspec.Blocks)*bspec.BlockDuration + d.cfg.KernelTimeout
		bound <<= uint(head.retries)
		d.env.DoCallAfter(bound, watchdogFire, d, uint64(kid))
	}
}

// batchComplete fans a finished batched launch out to its members: one
// completed kernel execution each, in formation order.
func (d *Dispatcher) batchComplete(kid uint32, fl *inflightKernel) {
	now := d.env.Now()
	if d.rec != nil {
		d.rec.AsyncArgs(d.traceProc, batchTraceBase|uint64(kid), fl.spec.Name, "batch",
			fl.sentAt, now, trace.Int("size", int64(len(fl.members))))
		for _, m := range fl.members {
			d.rec.Async(d.traceProc, m.Req.ID, "batch-exec", "job", fl.sentAt, now)
		}
	}
	for _, m := range fl.members {
		m.execsDone++
		m.kernelsInFlight--
	}
	for _, m := range fl.members {
		d.opDone(m)
	}
	d.traceCounters()
}

// batchTimeout is the watchdog recovery path for a batched launch (the
// mirror was already reconciled against the widened spec by the caller).
// Never-placed batches re-dispatch each member solo through the policy —
// re-batching a launch the device may be wedged on would repeat the fault
// at full width — while partially-placed batches force-complete every
// member, mirroring the unbatched lost-completion rule.
func (d *Dispatcher) batchTimeout(fl *inflightKernel) {
	for _, m := range fl.members {
		m.kernelsInFlight--
	}
	for _, m := range fl.members {
		if m.cancelled || m.failErr != nil {
			if m.kernelsInFlight == 0 {
				d.finish(m)
			}
			continue
		}
		if fl.placed == 0 {
			if m.retries >= maxKernelRetries {
				d.failJob(m, ErrKernelTimeout)
				continue
			}
			m.retries++
			d.stats.KernelRetries++
			d.mt.Add(d.mtRetries, d.env.Now(), 1)
			m.entry.Remaining = m.Ins.Profile.RemainingAfter(m.execsDone)
			d.policyAdd(m)
			continue
		}
		m.execsDone++
		d.opDone(m)
	}
	d.traceCounters()
	d.wakeNow()
}
