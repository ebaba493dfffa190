package core

import (
	"fmt"
	"sort"

	"paella/internal/channel"
	"paella/internal/compiler"
	"paella/internal/cudart"
	"paella/internal/gpu"
	"paella/internal/metrics"
	"paella/internal/rbtree"
	"paella/internal/sched"
	"paella/internal/sim"
	"paella/internal/trace"
	"paella/internal/vram"
)

type jobOpKind int

const (
	opCopyIn jobOpKind = iota
	opKernel
	opCopyOut
)

type jobOp struct {
	kind  jobOpKind
	spec  *gpu.KernelSpec // opKernel only
	bytes int             // copies only
}

// modelEntry is a registered model with the op list every job of it
// follows. Jobs share ops, which nothing writes after RegisterModel.
type modelEntry struct {
	ins *compiler.Instrumented
	ops []jobOp
}

// Job is one admitted inference request moving through the dispatcher.
type Job struct {
	Req  Request
	Ins  *compiler.Instrumented
	conn *ClientConn

	ops       []jobOp // the model's shared, read-only op list
	cursor    int
	execsDone int // kernel executions completed (SRPT progress)

	entry    sched.JobEntry
	inPolicy bool
	// cancelled marks a job aborted by the client; kernelsInFlight counts
	// its kernels currently on the device (which must drain first);
	// finished guards against double completion (e.g. cancel racing an
	// in-flight copy's timer).
	cancelled       bool
	finished        bool
	kernelsInFlight int
	// failErr, when non-nil, is the typed error the job will terminate
	// with once its in-flight kernels drain.
	failErr error
	// retries counts watchdog-triggered kernel re-dispatches (bounded by
	// maxKernelRetries).
	retries int
	// vramPinned marks a job holding a residency pin on its model's
	// weights (released at finish).
	vramPinned bool

	// Dynamic-batching state (inert unless Config.MaxBatch > 1). held
	// marks a job parked by the batch-formation window: it stays in the
	// policy order but the dispatch gate skips it until a partner arrives
	// or the hold expires. holdGen invalidates stale hold timers;
	// holdStart stamps the hold for per-member wait attribution; noHold
	// marks a job whose hold expired partnerless — it dispatches solo
	// rather than re-arming (reset on dispatch). batchNode is the job's
	// handle in the dispatcher's same-kernel batch index.
	held      bool
	holdGen   uint64
	holdStart sim.Time
	noHold    bool
	batchNode *rbtree.Node[*Job]

	// readyAt stamps the job's latest entry into the scheduling policy (or
	// the end of its latest batch hold). Dispatch consumes it into
	// rec.HoLNs once the job is past its first dispatch — the ready-but-
	// ungated head-of-line gap of the latency anatomy.
	readyAt sim.Time

	// wl holds the Figure 7 waitlists for adaptor-backed jobs; nil for the
	// standard model path (whose ops follow the cursor above).
	wl *waitlist

	stream *cudart.Stream // ablation modes
	rec    metrics.JobRecord
	belled bool
}

// buildOps synthesizes the operation list a model's jobs follow: input
// copy, the kernel sequence, and (unless the output is pinned) the output
// copy. instrumented selects the instrumented kernel clones (ModeGated) or
// the originals (ablation modes, which do not consume notifications).
func buildOps(ins *compiler.Instrumented, instrumented bool) []jobOp {
	m := ins.Model
	if !instrumented {
		m = ins.Original
	}
	ops := make([]jobOp, 0, len(m.Seq)+2)
	if m.InputBytes > 0 {
		ops = append(ops, jobOp{kind: opCopyIn, bytes: m.InputBytes})
	}
	for _, ki := range m.Seq {
		ops = append(ops, jobOp{kind: opKernel, spec: m.Kernels[ki]})
	}
	if !m.PinnedOutput && m.OutputBytes > 0 {
		ops = append(ops, jobOp{kind: opCopyOut, bytes: m.OutputBytes})
	}
	return ops
}

// currentKernel returns the spec of the job's current (kernel) op.
func (j *Job) currentKernel() *gpu.KernelSpec {
	op := &j.ops[j.cursor]
	if op.kind != opKernel {
		panic("core: current op is not a kernel")
	}
	return op.spec
}

// peekKernel returns the kernel the dispatcher would release next: the
// cursor op for model jobs, or the first active waitlisted kernel for
// adaptor jobs.
func (j *Job) peekKernel() *gpu.KernelSpec {
	if j.wl != nil {
		o := j.wl.activeKernel()
		if o == nil {
			panic("core: job in policy without an active kernel")
		}
		return o.spec
	}
	return j.currentKernel()
}

// isFinalGPUOp reports whether the current op is the job's last.
func (j *Job) isFinalGPUOp() bool { return j.cursor == len(j.ops)-1 }

// admit accepts one request from a client ring (already charged AdmitCost)
// and starts its first operation. Runs in dispatcher-loop context.
func (d *Dispatcher) admit(p *sim.Proc, req Request) {
	conn := d.clients[req.Client]
	if conn.dead {
		// The client disconnected after submitting: the request fails
		// silently (no one is listening), but still leaves a typed record
		// so no job is ever unaccounted for.
		d.rejectRequest(req, ErrClientDisconnected)
		return
	}
	m, ok := d.models[req.Model]
	if !ok {
		if ae, isAdaptor := d.adaptors[req.Model]; isAdaptor {
			d.admitAdaptor(req, ae)
			return
		}
		panic(fmt.Sprintf("core: request for unregistered model %q", req.Model))
	}
	now := d.env.Now()
	ins := m.ins
	j := &Job{
		Req:  req,
		Ins:  ins,
		conn: d.clients[req.Client],
		ops:  m.ops,
		rec: metrics.JobRecord{
			ID:          req.ID,
			Model:       req.Model,
			Client:      req.Client,
			Tenant:      req.Tenant,
			Submit:      req.Submit,
			Admit:       now,
			FrameworkNs: d.cfg.AdmitCost,
		},
	}
	d.stats.Admitted++
	if d.rec != nil {
		d.rec.InstantArgs(d.admitTrack, req.Model, "admit", now,
			trace.Int("id", int64(req.ID)), trace.Int("client", int64(req.Client)))
	}
	d.traceCounters()
	switch d.cfg.Mode {
	case ModeGated:
		j.entry = sched.JobEntry{
			ID:        req.ID,
			Client:    req.Client,
			Arrival:   now,
			Total:     ins.Profile.TotalTime(),
			Remaining: ins.Profile.TotalTime(),
			Deadline:  req.Deadline,
			Payload:   j,
		}
		d.cfg.Policy.JobAdmitted(req.Client)
		d.jobs[req.ID] = j
		d.pinWeights(j)
		d.advanceGated(j)
	case ModeKernelByKernel:
		j.stream = d.rtCtx.StreamCreate()
		d.issueNext(p, j)
	case ModeJobByJob, ModeSingleStream:
		if d.cfg.Mode == ModeSingleStream {
			j.stream = d.sharedStream
		} else {
			j.stream = d.rtCtx.StreamCreate()
		}
		d.issueWholeJob(p, j)
	}
}

// rejectRequest records a typed failure for a request that was never
// admitted as a job (shed, or its client is gone) and notifies the client
// if one is still listening.
func (d *Dispatcher) rejectRequest(req Request, err error) {
	now := d.env.Now()
	rec := metrics.JobRecord{
		ID: req.ID, Model: req.Model, Client: req.Client, Tenant: req.Tenant,
		Submit: req.Submit, Admit: now,
		ExecDone: now, Delivered: now + d.cfg.ShmLatency,
		Failed: true, FailureReason: err.Error(),
	}
	d.collector.Add(rec)
	d.mt.RecordJob(rec.Delivered, &rec)
	conn := d.clients[req.Client]
	if conn.dead || conn.OnFailed == nil {
		return
	}
	id := req.ID
	cb := conn.OnFailed
	d.env.After(d.cfg.ShmLatency, func() { cb(id, err) })
}

// --- ModeGated: software-defined scheduling -------------------------------

// pinWeights takes a residency pin on the admitted job's model and, for a
// cold model, kicks off (or joins) its weight load. The job's input copy
// still proceeds — it overlaps the load on the H2D engine — but kernels
// stay gated until the model is resident. No-op when memory is
// unconstrained.
func (d *Dispatcher) pinWeights(j *Job) {
	if d.vramMgr == nil {
		return
	}
	name := j.Req.Model
	now := d.env.Now()
	d.vramMgr.Pin(name, now)
	j.vramPinned = true
	if d.vramMgr.Resident(name) {
		j.entry.Warm = true
		return
	}
	if d.rec != nil {
		// Cold-start begin, attributed to the job that triggered (or joined)
		// the load.
		d.rec.InstantArgs(d.schedTrack, name, "cold-start", now,
			trace.Int("job", int64(j.Req.ID)))
	}
	ls := d.loads[name]
	if ls == nil {
		ls = &loadState{}
		d.loads[name] = ls
		d.startLoad(name, ls)
	}
	ls.waiters = append(ls.waiters, j)
}

// startLoad begins paging the model's weights in: reserve VRAM (evicting
// LRU unpinned models as needed) and enqueue the H2D transfer on the same
// link the tensor copies use. If every eviction candidate is pinned, the
// load parks as pending until a job finishes and unpins memory.
func (d *Dispatcher) startLoad(name string, ls *loadState) {
	err := d.vramMgr.BeginLoad(name, d.env.Now())
	if err == vram.ErrNoMemory {
		ls.pending = true
		return
	}
	if err != nil {
		panic(fmt.Sprintf("core: weight load for %q: %v", name, err))
	}
	ls.pending = false
	bytes := d.models[name].ins.Model.WeightBytes
	d.pcie.Transfer(cudart.HostToDevice, bytes, func() { d.loadDone(name) })
}

// loadDone marks the model resident, upgrades its waiting jobs to warm in
// the policy order, and charges each one the time it spent blocked on the
// load. An injected load failure (FailNextLoad) instead aborts the load and
// retries with exponential backoff; when maxLoadRetries attempts
// have failed, every waiting job terminates with ErrLoadFailed.
func (d *Dispatcher) loadDone(name string) {
	ls := d.loads[name]
	now := d.env.Now()
	if d.failNextLoad[name] > 0 {
		d.failNextLoad[name]--
		d.vramMgr.AbortLoad(name, now)
		ls.attempts++
		if d.rec != nil {
			d.rec.InstantArgs(d.schedTrack, name, "load-failed", now,
				trace.Int("attempt", int64(ls.attempts)))
		}
		if ls.attempts > maxLoadRetries {
			d.stats.LoadFailures++
			delete(d.loads, name)
			for _, j := range ls.waiters {
				d.failJob(j, ErrLoadFailed)
			}
			return
		}
		d.stats.LoadRetries++
		backoff := loadRetryBase << (ls.attempts - 1)
		d.env.After(backoff, func() {
			// The load state may have been torn down meanwhile (e.g. all
			// waiters disconnected and the job set drained).
			if cur := d.loads[name]; cur == ls {
				d.startLoad(name, ls)
			}
		})
		return
	}
	d.vramMgr.FinishLoad(name, d.env.Now())
	for _, j := range ls.waiters {
		if j.finished {
			continue
		}
		j.rec.ColdStart = true
		j.rec.LoadNs = now - j.rec.Admit
		if j.inPolicy {
			d.cfg.Policy.Remove(&j.entry)
			j.entry.Warm = true
			d.cfg.Policy.Add(&j.entry)
		} else {
			j.entry.Warm = true
		}
	}
	delete(d.loads, name)
	d.wakeNow()
}

// retryPendingLoads re-attempts memory-starved loads after a job finished
// (and so may have unpinned an eviction candidate). Names are retried in
// sorted order for determinism.
func (d *Dispatcher) retryPendingLoads() {
	var names []string
	for name, ls := range d.loads {
		if ls.pending {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		d.startLoad(name, d.loads[name])
	}
}

// advanceGated starts the job's current op, or finishes the job.
func (d *Dispatcher) advanceGated(j *Job) {
	if j.cursor >= len(j.ops) {
		d.finish(j)
		return
	}
	op := &j.ops[j.cursor]
	switch op.kind {
	case opKernel:
		// The job becomes runnable; the loop's dispatch phase releases it
		// when the policy and the occupancy mirror agree.
		j.entry.Remaining = j.Ins.Profile.RemainingAfter(j.execsDone)
		d.policyAdd(j)
		d.wakeNow()
	case opCopyIn, opCopyOut:
		// Copies bypass the SM occupancy gate (they use the DMA engines).
		if op.kind == opCopyOut {
			// §4.2: the almost-finished annotation fires before the final
			// device-to-host copy.
			d.ringBell(j)
		}
		d.stats.CopiesSent++
		if d.pcie != nil {
			// Constrained-memory configuration: tensor copies queue on the
			// shared DMA engines, contending with weight loads (and each
			// other) for PCIe bandwidth.
			d.pcie.Transfer(copyDirection(op.kind), op.bytes, func() { d.opDone(j) })
		} else {
			d.env.After(d.copies.Duration(op.bytes), func() { d.opDone(j) })
		}
	}
}

// dispatchKernel releases the job's next kernel to the device. Runs in
// dispatcher-loop context after the gating check passed.
func (d *Dispatcher) dispatchKernel(j *Job) {
	var spec *gpu.KernelSpec
	var wlop *wlOp
	if j.wl != nil {
		wlop = j.wl.activeKernel()
		wlop.state = wlDispatched
		spec = wlop.spec
	} else {
		spec = j.currentKernel()
	}
	d.cfg.Policy.Dispatched(&j.entry)
	d.policyRemove(j)
	j.noHold = false
	if j.rec.FirstDispatch == 0 {
		j.rec.FirstDispatch = d.env.Now()
	} else if j.readyAt > 0 {
		// Ready but ungated since readyAt: the head-of-line dispatch gap
		// hardware queues hide and the anatomy makes visible.
		j.rec.HoLNs += d.env.Now() - j.readyAt
	}
	j.readyAt = 0
	j.rec.SchedNs += d.cfg.SchedDelay + d.cfg.DispatchCost

	if j.wl == nil && j.isFinalGPUOp() {
		// Pinned output: the wakeup precedes the last kernel launch (§4.2).
		d.ringBell(j)
	}
	d.nextKernelID++
	kid := d.nextKernelID
	j.kernelsInFlight++
	fl := d.newInflight()
	fl.job, fl.spec, fl.op = j, spec, wlop
	d.inflight[kid] = fl
	d.mirror.Reserve(spec)
	d.stats.KernelsSent++
	if d.rec != nil {
		d.rec.InstantArgs(d.schedTrack, spec.Name, "dispatch", d.env.Now(),
			trace.Int("job", int64(j.Req.ID)),
			trace.Int("kernel_id", int64(kid)),
			trace.Str("policy", d.cfg.Policy.Name()),
			trace.Str("reason", d.dispatchReason(&j.entry)))
	}
	d.traceCounters()
	// The launch is always Ready: the dispatcher already enforced its
	// dependencies. Virtual streams bind to hardware queues round-robin at
	// launch time (§5.2's stream replacement).
	d.queueCursor = (d.queueCursor + 1) % d.dev.NumQueues()
	l := d.newLaunch()
	l.Spec, l.KernelID, l.JobTag, l.Instrumented = spec, kid, j.Req.Model, true
	fl.launch = l
	d.dev.Submit(d.queueCursor, l)
	if d.cfg.KernelTimeout > 0 && j.wl == nil {
		// Watchdog (fault recovery): the serial upper bound — every block
		// of the kernel running one after another — plus the configured
		// grace can only be exceeded when notifications were lost or the
		// device stopped placing (retired SMs, wedged queue). Retries
		// stretch the window, a cheap exponential backoff.
		bound := sim.Time(spec.Blocks)*spec.BlockDuration + d.cfg.KernelTimeout
		bound <<= uint(j.retries)
		d.env.DoCallAfter(bound, watchdogFire, d, uint64(kid))
	}
	if j.wl != nil {
		// Another stream of this job may expose a further active kernel.
		j.wl.reconcilePolicy()
	}
}

// onKernelTimeout is the watchdog's recovery path for a kernel whose
// notifications never completed it. The occupancy mirror is reconciled
// (outstanding reservations flushed, resident blocks freed) so the fault
// cannot wedge dispatch for every other job. Then:
//
//   - No placement was ever observed (launch lost to a hung queue or its
//     notifications all dropped): re-dispatch the same kernel through the
//     normal policy path, up to maxKernelRetries, after which the
//     job fails with ErrKernelTimeout.
//   - Blocks were placed but completions went missing (a lossy notifQ):
//     the kernel did run — force-complete it and let the job advance.
//
// Late notifications for the reconciled kernel id are counted as stale and
// ignored (see applyNotif).
//
// watchdogFire is the timer payload: ctx is the Dispatcher, arg the kernel
// id — a typed event instead of a per-dispatch closure.
var watchdogFire sim.EventFn = func(ctx any, arg uint64) {
	ctx.(*Dispatcher).onKernelTimeout(uint32(arg))
}

func (d *Dispatcher) onKernelTimeout(kid uint32) {
	fl, ok := d.inflight[kid]
	if !ok {
		return // completed normally before the watchdog fired
	}
	delete(d.inflight, kid)
	defer d.putInflight(fl)
	j := fl.job
	spec := fl.spec
	d.stats.KernelTimeouts++
	// Reconcile the mirror: whatever was never reported placed is still
	// reserved; whatever was reported placed but not completed is still
	// resident. Flush both.
	if n := spec.Blocks - fl.placed; n > 0 {
		d.mirror.Place(spec, n)
	}
	if n := spec.Blocks - fl.completed; n > 0 {
		d.mirror.Complete(spec, n)
	}
	if d.rec != nil {
		d.rec.InstantArgs(d.schedTrack, spec.Name, "kernel-timeout", d.env.Now(),
			trace.Int("job", int64(j.Req.ID)), trace.Int("kernel_id", int64(kid)),
			trace.Int("placed", int64(fl.placed)), trace.Int("completed", int64(fl.completed)),
			trace.Int("retries", int64(j.retries)))
	}
	if len(fl.members) > 0 {
		d.batchTimeout(fl)
		return
	}
	j.kernelsInFlight--
	if j.cancelled || j.failErr != nil {
		if j.kernelsInFlight == 0 {
			d.finish(j)
		}
		return
	}
	if fl.placed == 0 {
		if j.retries >= maxKernelRetries {
			d.failJob(j, ErrKernelTimeout)
			return
		}
		j.retries++
		d.stats.KernelRetries++
		d.mt.Add(d.mtRetries, d.env.Now(), 1)
		// Back into the ready queue: the cursor never advanced, so the
		// policy re-releases exactly this kernel once it fits again.
		j.entry.Remaining = j.Ins.Profile.RemainingAfter(j.execsDone)
		d.policyAdd(j)
		d.wakeNow()
		return
	}
	// Partially or fully placed: the device ran the blocks; only their
	// completion records were lost. Advance the job.
	j.execsDone++
	d.opDone(j)
	d.traceCounters()
	d.wakeNow()
}

// dispatchReason explains why the policy picked this entry — the sort key
// the decision turned on, plus the entry's residency temperature when
// device memory is constrained. This is the paper's "arbitrary scheduling
// policy" made auditable: every release carries its tiebreak.
func (d *Dispatcher) dispatchReason(e *sched.JobEntry) string {
	var r string
	switch d.cfg.Policy.Name() {
	case "SJF":
		r = "total=" + e.Total.String()
	case "FIFO":
		r = "arrival=" + e.Arrival.String()
	case "EDF":
		r = "deadline=" + e.Deadline.String()
	default:
		r = "remaining=" + e.Remaining.String()
	}
	if d.vramMgr != nil {
		if e.Warm {
			r += " warm"
		} else {
			r += " cold"
		}
	}
	return r
}

// applyNotif folds one instrumented notification into the occupancy mirror
// and job progress. Runs in dispatcher-loop context.
func (d *Dispatcher) applyNotif(n channel.Notification) {
	d.stats.NotifsHandled++
	fl, ok := d.inflight[n.KernelID()]
	if !ok {
		if d.tolerant() {
			// A duplicate of a final completion, or a record for a kernel
			// the watchdog already reconciled. Count and ignore.
			d.stats.StaleNotifs++
			return
		}
		panic(fmt.Sprintf("core: notification for unknown kernel %d", n.KernelID()))
	}
	count := int(n.GroupCount())
	switch n.Type() {
	case channel.Placement:
		if fl.placed+count > fl.spec.Blocks {
			// Duplicated placement records: clamp to the kernel's true block
			// count so the mirror never over-credits residency.
			if !d.tolerant() {
				panic(fmt.Sprintf("core: placement overflow for kernel %d", n.KernelID()))
			}
			d.stats.StaleNotifs++
			count = fl.spec.Blocks - fl.placed
		}
		if count <= 0 {
			return
		}
		fl.placed += count
		d.mirror.Place(fl.spec, count)
	case channel.Completion:
		if fl.completed+count > fl.spec.Blocks {
			// Duplicated completion records: clamp symmetrically.
			if !d.tolerant() {
				panic(fmt.Sprintf("core: completion overflow for kernel %d", n.KernelID()))
			}
			d.stats.StaleNotifs++
			count = fl.spec.Blocks - fl.completed
		}
		if count <= 0 {
			return
		}
		if over := fl.completed + count - fl.placed; over > 0 {
			// A completion implies a placement: the placement record for
			// these blocks was dropped. Infer it so the mirror's resident
			// pool covers the blocks about to be released.
			if !d.tolerant() {
				panic(fmt.Sprintf("core: completion before placement for kernel %d", n.KernelID()))
			}
			d.stats.StaleNotifs++
			fl.placed += over
			d.mirror.Place(fl.spec, over)
		}
		fl.completed += count
		d.mirror.Complete(fl.spec, count)
		if fl.completed == fl.spec.Blocks {
			delete(d.inflight, n.KernelID())
			if len(fl.members) > 0 {
				d.batchComplete(n.KernelID(), fl)
				d.putInflight(fl)
				return
			}
			fl.job.execsDone++
			fl.job.kernelsInFlight--
			j, op := fl.job, fl.op
			// Retire the record before fan-out: opDone may dispatch the
			// job's next kernel, which then reuses it from the pool.
			d.putInflight(fl)
			if op != nil {
				j.wl.opFinished(op)
			} else {
				d.opDone(j)
			}
			d.traceCounters()
		}
	default:
		panic("core: invalid notification type")
	}
}

// opDone advances the job past its just-completed op.
func (d *Dispatcher) opDone(j *Job) {
	if j.finished {
		return // a copy timer landing after the job already failed
	}
	if j.cancelled || j.failErr != nil {
		// Drop remaining work; finish once the device has drained this
		// job's in-flight kernels.
		if j.kernelsInFlight == 0 {
			d.finish(j)
		}
		return
	}
	j.cursor++
	if d.cfg.Mode == ModeGated {
		d.advanceGated(j)
	}
}

// failJob terminates an in-flight job with a typed error. Undispatched work
// is dropped immediately; kernels already on the device drain first (their
// completions route through opDone's failure path), after which finish
// records the typed failure and notifies the client.
func (d *Dispatcher) failJob(j *Job, err error) {
	if j.finished || j.failErr != nil {
		return
	}
	j.failErr = err
	if j.inPolicy {
		d.policyRemove(j)
	}
	if d.rec != nil {
		d.rec.InstantArgs(d.schedTrack, j.Req.Model, "job-failed", d.env.Now(),
			trace.Int("job", int64(j.Req.ID)), trace.Str("reason", err.Error()))
	}
	if j.kernelsInFlight == 0 {
		d.finish(j)
	}
}

// disconnectClient implements ClientConn.Disconnect on the dispatcher side:
// the client's live jobs terminate with ErrClientDisconnected (in-flight
// kernels drain first) and its queued-but-unadmitted requests are rejected
// as they surface from the ring. Job ids are visited in sorted order for
// determinism.
func (d *Dispatcher) disconnectClient(id int) {
	conn := d.clients[id]
	if conn.dead {
		return
	}
	conn.dead = true
	var ids []uint64
	for rid, j := range d.jobs {
		if j.Req.Client == id {
			ids = append(ids, rid)
		}
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	for _, rid := range ids {
		d.failJob(d.jobs[rid], ErrClientDisconnected)
	}
	d.wakeNow()
}

// cancel implements ClientConn.Cancel on the dispatcher side.
func (d *Dispatcher) cancel(reqID uint64) {
	j, ok := d.jobs[reqID]
	if !ok || j.cancelled {
		return // unknown, already finished, or already cancelled
	}
	j.cancelled = true
	j.rec.Cancelled = true
	if j.inPolicy {
		d.policyRemove(j)
	}
	if j.kernelsInFlight == 0 {
		d.finish(j)
	}
}

// finish completes the job: records metrics and delivers the result over
// the GPU→client channel.
func (d *Dispatcher) finish(j *Job) {
	if j.finished {
		return
	}
	j.finished = true
	now := d.env.Now()
	j.rec.ExecDone = now
	j.rec.Delivered = now + d.cfg.ShmLatency
	if j.failErr != nil {
		j.rec.Failed = true
		j.rec.FailureReason = j.failErr.Error()
		d.stats.Failed++
	} else {
		d.stats.Completed++
	}
	delete(d.jobs, j.Req.ID)
	if d.cfg.Mode == ModeGated {
		d.cfg.Policy.JobFinished(j.Req.Client)
	}
	if j.vramPinned {
		j.vramPinned = false
		d.vramMgr.Unpin(j.Req.Model, now)
		d.retryPendingLoads()
	}
	if d.rec != nil {
		d.traceJob(&j.rec)
	}
	d.traceCounters()
	d.collector.Add(j.rec)
	d.mt.RecordJob(j.rec.Delivered, &j.rec)
	if j.failErr != nil {
		if !j.conn.dead && j.conn.OnFailed != nil {
			id := j.Req.ID
			err := j.failErr
			cb := j.conn.OnFailed
			d.env.After(d.cfg.ShmLatency, func() { cb(id, err) })
		}
		return
	}
	d.ringBell(j) // ensure the bell rang even for degenerate op lists
	if cb := j.conn.OnComplete; cb != nil && !j.conn.dead {
		id := j.Req.ID
		d.env.After(d.cfg.ShmLatency, func() { cb(id) })
	}
}

// traceJob emits the finished job's lifecycle as async spans grouped by
// request id — Perfetto renders each job as one timeline row with its
// queued→load→pending→exec→deliver phases laid end to end.
func (d *Dispatcher) traceJob(r *metrics.JobRecord) {
	d.rec.AsyncArgs(d.traceProc, r.ID, "queued", "job", r.Submit, r.Admit,
		trace.Str("model", r.Model), trace.Int("client", int64(r.Client)),
		trace.Bool("cancelled", r.Cancelled), trace.Bool("cold", r.ColdStart))
	if r.ColdStart && r.LoadNs > 0 {
		d.rec.Async(d.traceProc, r.ID, "load", "job", r.Admit, r.Admit+r.LoadNs)
	}
	fd := r.FirstDispatch
	if fd > r.Admit {
		d.rec.Async(d.traceProc, r.ID, "pending", "job", r.Admit, fd)
	}
	if fd > 0 && r.ExecDone > fd {
		d.rec.Async(d.traceProc, r.ID, "exec", "job", fd, r.ExecDone)
	}
	if r.Delivered > r.ExecDone {
		d.rec.Async(d.traceProc, r.ID, "deliver", "job", r.ExecDone, r.Delivered)
	}
}

// ringBell delivers the almost-finished wakeup exactly once per job.
func (d *Dispatcher) ringBell(j *Job) {
	if j.belled {
		return
	}
	j.belled = true
	if cb := j.conn.OnAlmostFinished; cb != nil && !j.conn.dead {
		id := j.Req.ID
		d.env.After(d.cfg.ShmLatency, func() { cb(id) })
	}
}

// --- Ablation modes: hardware scheduling with the Paella frontend ---------

// issueOp issues the job's op at index idx onto its CUDA stream and
// returns an event that fires when the op completes.
func (d *Dispatcher) issueOp(j *Job, idx int) *cudart.Event {
	op := &j.ops[idx]
	if j.rec.FirstDispatch == 0 {
		j.rec.FirstDispatch = d.env.Now()
	}
	switch op.kind {
	case opKernel:
		d.stats.KernelsSent++
		j.stream.LaunchKernelAsync(op.spec, cudart.LaunchOpts{JobTag: j.Req.Model})
	case opCopyIn, opCopyOut:
		d.stats.CopiesSent++
		j.stream.MemcpyAsync(nil, copyDirection(op.kind), op.bytes)
	}
	return j.stream.EventRecord()
}

func copyDirection(k jobOpKind) cudart.MemcpyKind {
	if k == opCopyIn {
		return cudart.HostToDevice
	}
	return cudart.DeviceToHost
}

// issueWholeJob releases every op of the job immediately (ModeJobByJob and
// ModeSingleStream), completing when the last op's event fires.
func (d *Dispatcher) issueWholeJob(p *sim.Proc, j *Job) {
	var last *cudart.Event
	for idx := range j.ops {
		d.charge(p, d.cfg.DispatchCost)
		j.rec.SchedNs += d.cfg.DispatchCost
		last = d.issueOp(j, idx)
	}
	last.OnFire(func() { d.finish(j) })
}

// issueNext releases the job's current op and arms its completion to issue
// the next (ModeKernelByKernel). Per-op dispatch cost is charged to the
// dispatcher loop via a posted wakeup.
func (d *Dispatcher) issueNext(p *sim.Proc, j *Job) {
	if p != nil {
		d.charge(p, d.cfg.DispatchCost)
	}
	j.rec.SchedNs += d.cfg.DispatchCost
	if j.isFinalGPUOp() {
		d.ringBell(j)
	}
	ev := d.issueOp(j, j.cursor)
	ev.OnFire(func() {
		j.cursor++
		if j.cursor >= len(j.ops) {
			d.finish(j)
			return
		}
		// Issue the next op outside the loop process; the dispatch cost
		// has already been modelled for this job's ops.
		d.issueNext(nil, j)
	})
}
