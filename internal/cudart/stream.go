package cudart

import (
	"fmt"

	"paella/internal/gpu"
	"paella/internal/sim"
	"paella/internal/trace"
)

type opKind int

const (
	opKernel opKind = iota
	opMemcpy
	opCallback
	opEvent
)

// op is one operation issued to a stream. Ops within a stream execute
// strictly in order; an op additionally waits for its cross-stream deps
// (legacy default-stream serialization).
type op struct {
	kind    opKind
	stream  *Stream
	deps    []*op
	done    bool
	started bool

	// memcpy
	bytes     int
	direction MemcpyKind
	// callback
	fn func()
	// event
	event *Event
}

func (o *op) depsDone() bool {
	for _, d := range o.deps {
		if !d.done {
			return false
		}
	}
	return true
}

// ready implements the CUDA ordering rule: an op may run only when it is
// the oldest incomplete op of its stream and its cross-stream dependencies
// are satisfied.
func (o *op) ready() bool {
	p := o.stream.pending
	return len(p) > 0 && p[0] == o && o.depsDone()
}

// finish marks the op complete and advances the stream.
func (o *op) finish() {
	if o.done {
		panic("cudart: op finished twice")
	}
	s := o.stream
	if len(s.pending) == 0 || s.pending[0] != o {
		panic(fmt.Sprintf("cudart: op on stream %d completed out of order", s.id))
	}
	o.done = true
	copy(s.pending, s.pending[1:])
	s.pending[len(s.pending)-1] = nil
	s.pending = s.pending[:len(s.pending)-1]
	s.ctx.opFinished()
	if len(s.pending) == 0 {
		waiters := s.drainWaiters
		s.drainWaiters = nil
		for _, fn := range waiters {
			s.ctx.env.After(0, fn)
		}
	}
	s.advance()
	// Freed dependencies may unblock kernels of other streams sitting in
	// hardware queues.
	s.ctx.dev.Kick()
	for _, other := range s.ctx.streams {
		if other != s {
			other.advance()
		}
	}
}

// Event is a CUDA event: recorded into a stream, it fires when all prior
// work in that stream has completed.
type Event struct {
	comp *sim.Completion
}

// OnFire registers fn to run when the event fires (immediately if it
// already has).
func (e *Event) OnFire(fn func()) { e.comp.OnFire(fn) }

// Completion exposes the underlying one-shot for process waits.
func (e *Event) Completion() *sim.Completion { return e.comp }

// Stream is a CUDA stream: a FIFO sequence of device operations. Stream 0
// is the legacy default stream and serializes against all other streams of
// its context.
type Stream struct {
	ctx          *Context
	id           int
	pending      []*op
	drainWaiters []func()
}

func newStream(c *Context, id int) *Stream {
	return &Stream{ctx: c, id: id}
}

// hwQueue maps the stream onto a hardware queue, modelling the driver's
// stream→queue assignment (streams beyond the queue count share queues,
// which reintroduces false dependencies — §5.2).
func (s *Stream) hwQueue() int { return s.id % s.ctx.dev.NumQueues() }

// legacyDeps computes cross-stream dependencies for legacy default-stream
// semantics: default-stream ops wait for everything outstanding; other ops
// wait for any outstanding default-stream work.
func (s *Stream) legacyDeps() []*op {
	var deps []*op
	if s.id == 0 {
		for _, other := range s.ctx.streams {
			if other.id == 0 {
				continue
			}
			deps = append(deps, other.pending...)
		}
		return deps
	}
	def := s.ctx.streams[0]
	if n := len(def.pending); n > 0 {
		deps = append(deps, def.pending[n-1])
	}
	return deps
}

func (s *Stream) push(o *op) {
	o.deps = s.legacyDeps()
	s.pending = append(s.pending, o)
	s.ctx.outstanding++
}

// LaunchOpts carries the optional identity fields of a kernel launch.
type LaunchOpts struct {
	// JobTag labels the owning job in device traces.
	JobTag string
}

// LaunchKernel issues a kernel on the stream from process p, charging the
// host-side launch-call cost. In direct mode the launch enters a hardware
// queue immediately (in issue order, ready or not); in hooked mode it is
// handed to the interception layer.
func (s *Stream) LaunchKernel(p *sim.Proc, spec *gpu.KernelSpec, opts LaunchOpts) {
	if p != nil && s.ctx.cfg.LaunchCallCost > 0 {
		p.Sleep(s.ctx.cfg.LaunchCallCost)
	}
	s.LaunchKernelAsync(spec, opts)
}

// LaunchKernelAsync issues a kernel without charging host cost (used by the
// Paella dispatcher, whose dispatch cost is modelled separately).
func (s *Stream) LaunchKernelAsync(spec *gpu.KernelSpec, opts LaunchOpts) {
	o := &op{kind: opKernel, stream: s}
	if s.ctx.hook != nil {
		s.push(o)
		s.ctx.hook.HookKernel(s.id, spec, o.finish)
		return
	}
	id := s.ctx.NextKernelID()
	l := &gpu.Launch{Spec: spec, KernelID: id, JobTag: opts.JobTag}
	l.Ready = o.ready
	l.OnComplete = o.finish
	if rec := s.ctx.rec; rec != nil {
		// Issue→completion span on the virtual stream's track: the host's
		// view of the kernel, including hardware-queue wait.
		issued := s.ctx.env.Now()
		tr := s.ctx.streamTrack(s.id)
		l.OnComplete = func() {
			rec.SpanArgs(tr, spec.Name, "stream-kernel", issued, s.ctx.env.Now(),
				trace.Str("job", opts.JobTag), trace.Int("kernel_id", int64(id)))
			o.finish()
		}
	}
	s.push(o)
	s.ctx.dev.Submit(s.hwQueue(), l)
}

// MemcpyAsync issues an asynchronous transfer of the given size on the
// stream from process p, charging the issue cost.
func (s *Stream) MemcpyAsync(p *sim.Proc, kind MemcpyKind, bytes int) {
	if p != nil && s.ctx.cfg.MemcpyIssueCost > 0 {
		p.Sleep(s.ctx.cfg.MemcpyIssueCost)
	}
	o := &op{kind: opMemcpy, stream: s, bytes: bytes, direction: kind}
	if s.ctx.hook != nil {
		// The hook owns the transfer; mark it started so advance() never
		// schedules a duplicate completion.
		o.started = true
		s.push(o)
		s.ctx.hook.HookMemcpy(s.id, kind, bytes, o.finish)
		return
	}
	s.push(o)
	s.advance()
}

// AddCallback registers fn to run (on the runtime's serialized callback
// executor) once all previously issued work on the stream completes. The
// stream blocks until the callback returns, matching cudaStreamAddCallback.
func (s *Stream) AddCallback(fn func()) {
	o := &op{kind: opCallback, stream: s, fn: fn}
	s.push(o)
	s.advance()
}

// EventRecord records an event that fires when all prior work on the
// stream completes.
func (s *Stream) EventRecord() *Event {
	e := &Event{comp: sim.NewCompletion(s.ctx.env)}
	o := &op{kind: opEvent, stream: s, event: e}
	s.push(o)
	s.advance()
	return e
}

// Synchronize blocks process p until all work issued on the stream has
// completed, charging the sync-call host cost.
func (s *Stream) Synchronize(p *sim.Proc) {
	p.Sleep(s.ctx.cfg.SyncCallCost)
	for len(s.pending) > 0 {
		done := sim.NewCompletion(s.ctx.env)
		s.drainWaiters = append(s.drainWaiters, done.Fire)
		p.Wait(done)
	}
}

// advance starts whatever work at the head of the stream is ready to run.
// Kernel ops progress on the device's own schedule; memcpy ops start their
// transfer; events and callbacks complete inline.
func (s *Stream) advance() {
	for len(s.pending) > 0 {
		o := s.pending[0]
		if !o.depsDone() {
			return
		}
		switch o.kind {
		case opKernel:
			// The device owns kernel progress (it polls o.ready); nothing
			// to do locally.
			return
		case opMemcpy:
			if !o.started {
				o.started = true
				dur := s.ctx.copies.Duration(o.bytes)
				if rec := s.ctx.rec; rec != nil {
					now := s.ctx.env.Now()
					rec.SpanArgs(s.ctx.streamTrack(s.id), "memcpy", "stream-memcpy",
						now, now+dur,
						trace.Str("dir", o.direction.String()), trace.Int("bytes", int64(o.bytes)))
				}
				s.ctx.env.After(dur, o.finish)
			}
			return
		case opCallback:
			if !o.started {
				o.started = true
				s.ctx.runCallback(func() {
					o.fn()
					o.finish()
				})
			}
			return
		case opEvent:
			o.event.comp.Fire()
			o.finish()
			// finish re-enters advance; avoid double-advancing.
			return
		}
	}
}
