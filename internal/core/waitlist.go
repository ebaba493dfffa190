package core

import (
	"fmt"
	"sort"

	"paella/internal/compiler"
	"paella/internal/cudart"
	"paella/internal/gpu"
	"paella/internal/metrics"
	"paella/internal/sched"
	"paella/internal/sim"
)

// Adaptor is the user-supplied job definition of the paper's Figure 8: a
// class whose run() issues the job's CUDA operations. Run executes as a
// cooperative coroutine (§4.2) against a *hooked* runtime context — every
// kernel launch and memcpy is intercepted into the job's waitlist, and
// blocking calls (stream/device synchronize) yield back to the dispatcher.
//
// Adaptors must issue kernels from the *instrumented* model registered
// with the dispatcher, must not spin, and must not perform non-CUDA
// blocking work (§4.2's restrictions).
type Adaptor interface {
	// Run issues the job's GPU work on ctx and returns when results are
	// ready (typically after ctx.DeviceSynchronize or a final stream
	// synchronize).
	Run(p *sim.Proc, ctx *cudart.Context)
}

// AdaptorFunc adapts a function to the Adaptor interface.
type AdaptorFunc func(p *sim.Proc, ctx *cudart.Context)

// Run implements Adaptor.
func (f AdaptorFunc) Run(p *sim.Proc, ctx *cudart.Context) { f(p, ctx) }

// adaptorEntry is a registered adaptor-backed model.
type adaptorEntry struct {
	ins     *compiler.Instrumented
	adaptor Adaptor
}

// RegisterAdaptor adds an adaptor-style job definition (Figure 8) under
// the given model name. The Instrumented model supplies the profile for
// SRPT estimates; the adaptor's Run decides the actual operation stream
// (which may use multiple virtual CUDA streams — the dispatcher's
// waitlists enforce stream semantics per Figure 7).
func (d *Dispatcher) RegisterAdaptor(name string, ins *compiler.Instrumented, a Adaptor) error {
	if d.cfg.Mode != ModeGated {
		return fmt.Errorf("core: adaptors require ModeGated, not %v", d.cfg.Mode)
	}
	if ins.Profile == nil {
		return fmt.Errorf("core: adaptor %q registered without a profile", name)
	}
	if _, dup := d.models[name]; dup {
		return fmt.Errorf("core: model %q already registered", name)
	}
	if d.adaptors == nil {
		d.adaptors = make(map[string]*adaptorEntry)
	}
	if _, dup := d.adaptors[name]; dup {
		return fmt.Errorf("core: adaptor %q already registered", name)
	}
	d.adaptors[name] = &adaptorEntry{ins: ins, adaptor: a}
	return nil
}

// wlOpState tracks a waitlisted operation's lifecycle.
type wlOpState int

const (
	wlWaiting    wlOpState = iota // inactive or active, not yet released
	wlDispatched                  // released to the device / DMA engine
	wlDone
)

// wlOp is one intercepted CUDA operation in a job's waitlist (Figure 7's
// entries, with the active/inactive distinction computed on demand).
type wlOp struct {
	kind   jobOpKind
	stream int
	spec   *gpu.KernelSpec // kernels
	bytes  int             // copies
	// complete unblocks the adaptor-side cudart op when called.
	complete func()
	deps     []*wlOp // default-stream serialization
	state    wlOpState
}

func (o *wlOp) depsDone() bool {
	for _, dep := range o.deps {
		if dep.state != wlDone {
			return false
		}
	}
	return true
}

// waitlist holds a job's intercepted operations, indexed per virtual
// stream, and implements the CUDA stream semantics of Figure 7: only the
// oldest incomplete op of each stream is ever active, the default stream
// (id 0) serializes against all others, and ops become dispatchable only
// when their dependencies complete.
type waitlist struct {
	d   *Dispatcher
	job *Job
	// streams maps virtual stream id → pending ops in issue order.
	streams map[int][]*wlOp
	// streamOrder keeps deterministic iteration.
	streamOrder []int
	// lastDefault is the most recent default-stream op still incomplete.
	pendingTotal int
}

func newWaitlist(d *Dispatcher, j *Job) *waitlist {
	return &waitlist{d: d, job: j, streams: make(map[int][]*wlOp)}
}

// HookKernel implements cudart.LaunchHook. The spec is validated here, at
// launch, the way Device.Submit validates it: the dispatcher's skip of the
// policy scan on a saturated mirror relies on every kernel in the policy
// having at least one block and one thread per block.
func (w *waitlist) HookKernel(streamID int, spec *gpu.KernelSpec, complete func()) {
	if err := spec.Validate(); err != nil {
		panic("core: " + err.Error())
	}
	w.push(&wlOp{kind: opKernel, stream: streamID, spec: spec, complete: complete})
}

// HookMemcpy implements cudart.LaunchHook.
func (w *waitlist) HookMemcpy(streamID int, _ cudart.MemcpyKind, bytes int, complete func()) {
	w.push(&wlOp{kind: opCopyIn, stream: streamID, bytes: bytes, complete: complete})
}

// push appends an op in issue order, computing its default-stream deps
// (stream 0 waits for everything outstanding; others wait for outstanding
// stream-0 work), then pumps.
func (w *waitlist) push(o *wlOp) {
	if o.stream == 0 {
		for _, sid := range w.streamOrder {
			if sid == 0 {
				continue
			}
			for _, other := range w.streams[sid] {
				if other.state != wlDone {
					o.deps = append(o.deps, other)
				}
			}
		}
	} else if def := w.streams[0]; len(def) > 0 {
		for i := len(def) - 1; i >= 0; i-- {
			if def[i].state != wlDone {
				o.deps = append(o.deps, def[i])
				break
			}
		}
	}
	if _, ok := w.streams[o.stream]; !ok {
		w.streamOrder = append(w.streamOrder, o.stream)
		sort.Ints(w.streamOrder)
	}
	w.streams[o.stream] = append(w.streams[o.stream], o)
	w.pendingTotal++
	w.pump()
}

// head returns the stream's oldest incomplete op, or nil.
func (w *waitlist) head(stream int) *wlOp {
	ops := w.streams[stream]
	if len(ops) == 0 {
		return nil
	}
	return ops[0]
}

// activeKernel returns the first active, undispatched kernel op across
// streams (deterministic stream order), or nil.
func (w *waitlist) activeKernel() *wlOp {
	for _, sid := range w.streamOrder {
		o := w.head(sid)
		if o != nil && o.kind == opKernel && o.state == wlWaiting && o.depsDone() {
			return o
		}
	}
	return nil
}

// pump dispatches any active copies immediately (they use the DMA
// engines, not SMs) and reconciles the job's policy membership with
// whether an active kernel awaits release.
func (w *waitlist) pump() {
	for _, sid := range w.streamOrder {
		o := w.head(sid)
		if o == nil || o.kind == opKernel || o.state != wlWaiting || !o.depsDone() {
			continue
		}
		o.state = wlDispatched
		w.d.stats.CopiesSent++
		op := o
		w.d.env.After(w.d.copies.Duration(o.bytes), func() { w.opFinished(op) })
	}
	w.reconcilePolicy()
}

// reconcilePolicy adds or removes the job from the scheduling policy so
// that membership ⇔ an active kernel is waiting for release.
func (w *waitlist) reconcilePolicy() {
	want := w.activeKernel() != nil
	switch {
	case want && !w.job.inPolicy:
		w.job.entry.Remaining = w.job.Ins.Profile.RemainingAfter(w.job.execsDone)
		w.d.cfg.Policy.Add(&w.job.entry)
		w.job.inPolicy = true
		w.d.wakeNow()
	case !want && w.job.inPolicy:
		w.d.cfg.Policy.Remove(&w.job.entry)
		w.job.inPolicy = false
	}
}

// opFinished marks an op complete, pops it from its stream, unblocks the
// adaptor-side runtime op, and pumps successors.
func (w *waitlist) opFinished(o *wlOp) {
	if o.state != wlDispatched {
		panic("core: waitlist op finished in state " + fmt.Sprint(o.state))
	}
	o.state = wlDone
	ops := w.streams[o.stream]
	if len(ops) == 0 || ops[0] != o {
		panic(fmt.Sprintf("core: waitlist stream %d completed out of order", o.stream))
	}
	w.streams[o.stream] = ops[1:]
	w.pendingTotal--
	o.complete()
	w.pump()
}

// admitAdaptor starts an adaptor-backed request: a fresh hooked runtime
// context plus a coroutine running the user's Run (§4.2's architecture).
func (d *Dispatcher) admitAdaptor(req Request, entry *adaptorEntry) {
	now := d.env.Now()
	j := &Job{
		Req:  req,
		Ins:  entry.ins,
		conn: d.clients[req.Client],
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
	j.entry = sched.JobEntry{
		ID:        req.ID,
		Client:    req.Client,
		Arrival:   now,
		Total:     entry.ins.Profile.TotalTime(),
		Remaining: entry.ins.Profile.TotalTime(),
		Deadline:  req.Deadline,
		Payload:   j,
	}
	d.cfg.Policy.JobAdmitted(req.Client)
	j.wl = newWaitlist(d, j)
	jctx := cudart.NewContext(d.env, d.dev, runtimeConfig())
	jctx.SetHook(j.wl)
	d.stats.Admitted++
	adaptor := entry.adaptor
	d.env.Spawn("job-"+req.Model, func(p *sim.Proc) {
		adaptor.Run(p, jctx)
		if j.wl.pendingTotal != 0 {
			panic(fmt.Sprintf("core: adaptor %q returned with %d ops pending (missing synchronize?)",
				req.Model, j.wl.pendingTotal))
		}
		d.finish(j)
	})
}
