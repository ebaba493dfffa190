// Package sim provides a deterministic discrete-event simulation engine.
//
// All of the Paella reproduction's macro experiments run on virtual time:
// the GPU device model, the CUDA runtime emulation, the dispatcher, and the
// clients are all actors scheduled on a single Env. Events fire in strict
// (time, insertion-order) order, so a run with a given seed is exactly
// reproducible.
//
// Two actor styles are supported:
//
//   - Callback actors register plain functions with After/At. The GPU block
//     scheduler is written this way, and so is the Paella dispatcher's loop:
//     a run-to-completion step that charges itself time with
//     AdvanceInPlace or a scheduled resume, and waits with
//     Cond.OnBroadcast.
//   - Process actors (see Proc) are runtime coroutines (iter.Pull) that
//     block on virtual-time primitives (Sleep, Completion.Wait, WaitCond).
//     Only one process (or event callback) is ever runnable at a time; an
//     event resumes a process by switching to its coroutine on the same
//     thread, and the process switches back when it blocks, which keeps the
//     simulation deterministic. Client jobs and CUDA-style adaptor code are
//     processes, mirroring the stackful Boost coroutines the paper's job
//     adaptors run on (§4.2).
//
// Event storage is a flat struct-of-arrays arena (see arena.go): records
// are addressed by index and recycled through an index-linked free list, so
// the steady-state event loop performs zero heap allocations per event.
// A monotone radix queue (see heap.go) orders the pending records by due
// time, ties in scheduling order.
// Scheduled events cannot be cancelled; an owner that must ignore a stale
// event checks its own state when the event fires.
//
// For multi-GPU cluster simulations, World composes several Envs — one
// shard per replica plus a control shard — and advances them in windows
// under a conservative synchronization protocol. Every window runs inline
// on the calling goroutine, in shard order (see world.go).
package sim

import (
	"fmt"
)

// Time is a point on (or a span of) the virtual timeline, in nanoseconds.
type Time int64

// Convenient durations for expressing virtual time spans.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// String formats t with an adaptive unit, e.g. "1.500ms".
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fµs", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// Seconds returns t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros returns t as a floating-point number of microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Millis returns t as a floating-point number of milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// Env is a discrete-event simulation environment. The zero value is not
// usable; construct with NewEnv.
type Env struct {
	now    Time
	arena  arena
	events eventQueue
	seq    uint64 // events scheduled so far
	steps  uint64
	// limit is the due-time bound of the running Run or RunUntil loop: a
	// wakeup due by then that would be the very next event runs in place
	// (see AdvanceInPlace). It is -1 outside those loops, so a bare Step
	// always runs exactly one queued event.
	limit Time
	// recorder is an optional tracing recorder attached to the run. It is
	// stored as any so that sim stays import-free of higher layers;
	// internal/trace.FromEnv performs the typed retrieval. A nil recorder
	// means tracing is disabled and must cost nothing.
	recorder any
	// meter is the recorder's windowed-telemetry sibling: an optional
	// telemetry.Meter (internal/telemetry.FromEnv retrieves it typed).
	// Nil means telemetry is disabled and must cost nothing.
	meter any
	// live holds the processes that have started and not yet finished,
	// i.e. those holding a coroutine; closed is set by Close (see proc.go).
	live   []*Proc
	closed bool
}

// SetRecorder attaches an optional tracing recorder (see internal/trace) to
// the environment. Components read it once at construction; attaching after
// actors have been built has no effect on them.
func (e *Env) SetRecorder(r any) { e.recorder = r }

// Recorder returns the attached tracing recorder, or nil.
func (e *Env) Recorder() any { return e.recorder }

// SetMeter attaches an optional windowed-telemetry meter (see
// internal/telemetry). Like the recorder, components read it once at
// construction.
func (e *Env) SetMeter(m any) { e.meter = m }

// Meter returns the attached telemetry meter, or nil.
func (e *Env) Meter() any { return e.meter }

// NewEnv returns an environment with the clock at zero and no pending events.
func NewEnv() *Env {
	e := &Env{limit: -1}
	e.arena.freeHead = -1
	return e
}

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.now }

// Steps returns the number of events executed so far (useful for detecting
// runaway simulations in tests). A wakeup run in place, without passing
// through the queue (see AdvanceInPlace), counts as the event it replaces,
// so step counts do not depend on how often that shortcut was taken.
func (e *Env) Steps() uint64 { return e.steps }

// Pending returns the number of scheduled events.
func (e *Env) Pending() int { return e.events.len() }

// NextEventTime returns the due time of the earliest pending event, and
// whether one exists. The World engine uses it to size conservative
// execution windows.
func (e *Env) NextEventTime() (Time, bool) {
	if e.events.len() == 0 {
		return 0, false
	}
	return e.events.minAt(), true
}

// schedule allocates and enqueues a record; exactly one of fn or cb is set.
func (e *Env) schedule(t Time, fn func(), cb EventFn, ctx any, arg uint64) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	i := e.arena.alloc()
	r := &e.arena.recs[i]
	r.fn, r.cb, r.ctx, r.arg = fn, cb, ctx, arg
	e.seq++
	e.events.push(i, t)
}

// At schedules fn to run at absolute virtual time t. Scheduling in the
// past panics: it would silently reorder causality. Scheduling exactly at
// Now is allowed and runs after the current event completes, and after
// every event already scheduled for Now.
func (e *Env) At(t Time, fn func()) {
	e.schedule(t, fn, nil, nil, 0)
}

// After schedules fn to run d nanoseconds of virtual time from now.
// Negative d panics.
func (e *Env) After(d Time, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e.schedule(e.now+d, fn, nil, nil, 0)
}

// DoCall schedules the typed callback cb(ctx, arg) at absolute time t. The
// two words are stored inline in the timer record, so — unlike a capturing
// closure passed to At — the call site allocates nothing. Use a top-level
// function or a method value that is free of per-call state.
func (e *Env) DoCall(t Time, cb EventFn, ctx any, arg uint64) {
	e.schedule(t, nil, cb, ctx, arg)
}

// DoCallAfter schedules the typed callback after a delay; see DoCall.
func (e *Env) DoCallAfter(d Time, cb EventFn, ctx any, arg uint64) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e.schedule(e.now+d, nil, cb, ctx, arg)
}

// Step executes the single earliest pending event — of those sharing the
// earliest due time, the first scheduled — advancing the clock to its due
// time. It returns false if no events are pending.
func (e *Env) Step() bool {
	if e.events.len() == 0 {
		return false
	}
	i, at := e.events.pop()
	r := &e.arena.recs[i]
	e.now = at
	e.steps++
	fn, cb, ctx, arg := r.fn, r.cb, r.ctx, r.arg
	e.arena.free(i)
	if cb != nil {
		cb(ctx, arg)
	} else {
		fn()
	}
	return true
}

// AdvanceInPlace runs a wakeup due d from now in place when it would be the
// very next event of the running Run or RunUntil loop: every queued event,
// one due now included, is due strictly after now+d, and now+d is within
// the loop's bound. It then advances the clock, counts the step, and
// reports true, and the caller keeps running as if the wakeup had been
// popped. Otherwise it changes nothing and reports false, and the caller
// schedules the wakeup as usual. Proc.Sleep takes the shortcut this way,
// and so can a callback actor that charges itself time. The elided wakeup
// never enters the queue, so the queued events keep their relative (time,
// scheduling) order.
func (e *Env) AdvanceInPlace(d Time) bool {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	t := e.now + d
	if t > e.limit || e.events.len() > 0 && e.events.minAt() <= t {
		return false
	}
	e.now = t
	e.steps++
	return true
}

// bound sets the running loop's due-time bound and returns the enclosing
// one, for the loop to restore on exit.
func (e *Env) bound(t Time) Time {
	outer := e.limit
	e.limit = t
	return outer
}

// Run executes events until none remain.
func (e *Env) Run() {
	defer e.bound(e.bound(1<<63 - 1))
	for e.Step() {
	}
}

// RunUntil executes all events due at or before t, then advances the clock
// to exactly t (even if the last event fired earlier).
func (e *Env) RunUntil(t Time) {
	defer e.bound(e.bound(t))
	for {
		at, ok := e.NextEventTime()
		if !ok || at > t {
			break
		}
		e.Step()
	}
	if t > e.now {
		e.now = t
	}
}

// RunFor executes events for a span of d virtual nanoseconds from now.
func (e *Env) RunFor(d Time) { e.RunUntil(e.now + d) }
