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
//     scheduler is written this way.
//   - Process actors (see Proc) are runtime coroutines (iter.Pull) that
//     block on virtual-time primitives (Sleep, Completion.Wait, Cond.Wait).
//     Only one process (or event callback) is ever runnable at a time; an
//     event resumes a process by switching to its coroutine on the same
//     thread, and the process switches back when it blocks, which keeps the
//     simulation deterministic. The Paella dispatcher's loop, client jobs
//     and CUDA-style adaptor code are processes, mirroring the stackful
//     Boost coroutines used by the paper's dispatcher (§4.2).
//
// Event storage is a flat struct-of-arrays arena (see arena.go): records
// are addressed by index and recycled through an index-linked free list, so
// the steady-state event loop performs zero heap allocations per event.
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
	seq    uint64
	steps  uint64
	// limit is the due-time bound of the running Run or RunUntil loop: a
	// process wakeup due by then that would be the very next event runs in
	// place (see wakeInPlace). It is -1 outside those loops, so a bare Step
	// always runs exactly one queued event.
	limit Time
	// imm is a circular FIFO of events due exactly at the current clock —
	// the zero-delay handoffs (process wakeups, completion fires, mutex
	// transfers) that dominate a DES run. Because every entry was scheduled
	// while the clock already stood at its due time, entries are in seq
	// order, and any heap event sharing that timestamp was scheduled
	// earlier (smaller seq); comparing the FIFO front against the heap top
	// by (at, seq) therefore reproduces the exact global event order while
	// keeping the common case O(1) instead of O(log n). The FIFO always
	// drains before the clock can advance, so entries never go stale.
	imm      []int32
	immFirst int
	immLen   int
	// mut counts queue mutations (schedule, fire); nextMut/nextAt/
	// nextOK memoize NextEventTime against it. The World engine probes every
	// shard's next event at least twice per window, and most shards are
	// untouched between probes — the memo turns those probes into a counter
	// compare.
	mut     uint64
	nextMut uint64
	nextAt  Time
	nextOK  bool
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
	e := &Env{mut: 1, limit: -1}
	e.arena.freeHead = -1
	e.events.a = &e.arena
	e.events.lastB = -1
	return e
}

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.now }

// Steps returns the number of events executed so far (useful for detecting
// runaway simulations in tests). A process wakeup run in place, without
// passing through the queue (see Proc.Sleep), counts as the event it
// replaces, so step counts do not depend on how often that shortcut was
// taken.
func (e *Env) Steps() uint64 { return e.steps }

// Pending returns the number of scheduled events.
func (e *Env) Pending() int { return e.events.len() + e.immLen }

// NextEventTime returns the due time of the earliest pending event, and
// whether one exists. The World engine uses it to size conservative
// execution windows.
func (e *Env) NextEventTime() (Time, bool) {
	if e.nextMut == e.mut {
		return e.nextAt, e.nextOK
	}
	e.nextMut = e.mut
	if e.immLen > 0 {
		// FIFO entries are due at the current clock, which is ≤ any heap
		// event's due time.
		e.nextAt, e.nextOK = e.arena.recs[e.imm[e.immFirst]].at, true
	} else if e.events.len() == 0 {
		e.nextAt, e.nextOK = 0, false
	} else {
		at, _ := e.events.minKey()
		e.nextAt, e.nextOK = at, true
	}
	return e.nextAt, e.nextOK
}

// pushImm appends an event due exactly now to the immediate FIFO.
func (e *Env) pushImm(i int32) {
	if e.immLen == len(e.imm) {
		e.growImm()
	}
	e.imm[(e.immFirst+e.immLen)&(len(e.imm)-1)] = i
	e.immLen++
}

// popImm removes the FIFO front (which callers have already inspected).
func (e *Env) popImm() int32 {
	i := e.imm[e.immFirst]
	e.immFirst = (e.immFirst + 1) & (len(e.imm) - 1)
	e.immLen--
	return i
}

// growImm doubles the FIFO ring (minimum 16 slots, power of two),
// relocating live entries to the front.
func (e *Env) growImm() {
	next := make([]int32, max(16, 2*len(e.imm)))
	for i := 0; i < e.immLen; i++ {
		next[i] = e.imm[(e.immFirst+i)&(len(e.imm)-1)]
	}
	e.imm, e.immFirst = next, 0
}

// schedule allocates and enqueues a record; exactly one of fn or cb is set.
func (e *Env) schedule(t Time, fn func(), cb EventFn, ctx any, arg uint64) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	i := e.arena.alloc()
	r := &e.arena.recs[i]
	r.at, r.seq = t, e.seq
	r.fn, r.cb, r.ctx, r.arg = fn, cb, ctx, arg
	e.seq++
	e.mut++
	if t == e.now {
		e.pushImm(i)
	} else {
		e.events.push(i, t, r.seq)
	}
}

// At schedules fn to run at absolute virtual time t. Scheduling in the
// past panics: it would silently reorder causality. Scheduling exactly at
// Now is allowed and runs after the current event completes.
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

// Step executes the single earliest pending event, advancing the clock to
// its due time. It returns false if no events are pending.
func (e *Env) Step() bool {
	var i int32
	if e.immLen > 0 {
		// The FIFO front is due now; it loses only to a queued event at the
		// same timestamp scheduled earlier (smaller seq).
		fromQueue := false
		if e.events.len() > 0 {
			fr := &e.arena.recs[e.imm[e.immFirst]]
			if at, seq := e.events.minKey(); at == fr.at && seq < fr.seq {
				fromQueue = true
			}
		}
		if fromQueue {
			i = e.events.pop()
		} else {
			i = e.popImm()
		}
	} else {
		if e.events.len() == 0 {
			return false
		}
		i = e.events.pop()
	}
	r := &e.arena.recs[i]
	e.now = r.at
	e.steps++
	e.mut++
	fn, cb, ctx, arg := r.fn, r.cb, r.ctx, r.arg
	e.arena.free(i)
	if cb != nil {
		cb(ctx, arg)
	} else {
		fn()
	}
	return true
}

// wakeInPlace fires, without queueing it, a process wakeup due at t when
// that wakeup would be the very next event of the running Run or RunUntil
// loop: no immediate-FIFO entry is pending, every queued event is due
// strictly after t, and t is within the loop's bound. It advances the clock
// to t, counts the step, and reports true; the caller keeps running as if
// the wakeup had been popped. The wakeup takes no seq number, so every
// later event's seq is one smaller than it would have been, which leaves
// their relative (at, seq) order unchanged.
func (e *Env) wakeInPlace(t Time) bool {
	if t > e.limit || e.immLen > 0 {
		return false
	}
	if e.events.len() > 0 {
		if at, _ := e.events.minKey(); at <= t {
			return false
		}
	}
	e.now = t
	e.steps++
	e.mut++
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
