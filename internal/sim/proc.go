//go:build go1.23

// The build constraint raises this file's language version to the one that
// introduced iter.Pull; the module's go line stays lower so that modules
// requiring this one under an older go line keep building.

package sim

import (
	"fmt"
	"iter"
	"sync"
)

// Proc is a simulation process: code running on a runtime coroutine
// (iter.Pull) that advances only when the event loop resumes it and that
// yields back whenever it blocks on a virtual-time primitive. Resuming and
// yielding are direct coroutine switches on the calling thread — no
// scheduler wakeup, no channel — and at most one process (or event
// callback) runs at a time, so simulations remain deterministic.
//
// Processes model the paper's stackful coroutines: a Paella job adaptor is
// written as straight-line code calling blocking "CUDA" operations, and each
// blocking call yields control back to the dispatcher's event loop (§4.2,
// Fig. 7).
type Proc struct {
	env  *Env
	name string
	fn   func(p *Proc)
	// w is the coroutine running the process: nil until its first resume
	// and again once it has finished. A coroutine is a goroutine, and so a
	// GC root: a process that never runs holds none, and so cannot keep
	// its Env reachable.
	w    *worker
	done bool
	// slot is the process's index in env.live while it holds a worker.
	slot int
	// dispatchFn is the preallocated wakeup closure. Sleep/Wait/WaitCond
	// run once per simulated operation on hot paths; reusing one closure
	// (and the pooled timer arena) keeps wakeups allocation-free.
	dispatchFn func()
}

// worker is a coroutine that runs processes one after another: when a
// process returns, its worker parks in idleWorkers until a later process's
// first resume takes it. Reuse saves a goroutine start per process, and it
// keeps race-enabled builds bounded: through at least Go 1.24 a coroutine
// that exits never releases its race-detector goroutine state (coroexit
// skips racegoend), so a coroutine per process would leak a few KiB for
// every finished process in such builds.
// The pool is shared by every Env, so it holds no more idle workers than
// the most processes ever alive at once; a worker never touches an Env
// while idle.
type worker struct {
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	p     *Proc
}

var idleWorkers struct {
	mu sync.Mutex // Envs on different goroutines spawn and retire processes concurrently
	ws []*worker
}

func getWorker() *worker {
	idleWorkers.mu.Lock()
	if n := len(idleWorkers.ws); n > 0 {
		w := idleWorkers.ws[n-1]
		idleWorkers.ws[n-1] = nil
		idleWorkers.ws = idleWorkers.ws[:n-1]
		idleWorkers.mu.Unlock()
		return w
	}
	idleWorkers.mu.Unlock()
	w := new(worker)
	// The stop function is never needed: an idle worker waits in the pool,
	// and one whose process is parked returns there when Env.Close unwinds
	// it.
	w.next, _ = iter.Pull(w.loop)
	return w
}

func putWorker(w *worker) {
	idleWorkers.mu.Lock()
	idleWorkers.ws = append(idleWorkers.ws, w)
	idleWorkers.mu.Unlock()
}

// loop is the coroutine body: run the assigned process, then yield to the
// dispatch that resumed it, which returns the worker to the pool.
func (w *worker) loop(yield func(struct{}) bool) {
	w.yield = yield
	for {
		w.p.run()
		w.p = nil
		yield(struct{}{})
	}
}

// closeUnwind is the panic value park raises in a process that Env.Close
// resumes; run recovers it, so the process ends with its defers run.
type closeUnwind struct{}

// run executes the process function. A panic other than closeUnwind ends
// the worker's coroutine: iter.Pull re-raises it from next(), i.e. inside
// the event callback that resumed the process, so it surfaces from
// Env.Step.
func (p *Proc) run() {
	defer func() {
		p.done = true
		p.env.retire(p)
		if r := recover(); r != nil {
			if _, ok := r.(closeUnwind); !ok {
				p.w = nil // the coroutine dies with the panic; never pool it
				panic(fmt.Sprintf("sim: process %q panicked: %v", p.name, r))
			}
		}
	}()
	p.fn(p)
}

// Spawn starts fn as a new simulation process. The process begins running
// at the current virtual time, after the currently-executing event returns;
// it takes its coroutine then, not here. The name appears in panic messages
// only. A panic inside fn resurfaces from the Env.Step call that resumed
// the process, as "sim: process <name> panicked: <value>".
func (e *Env) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{env: e, name: name, fn: fn}
	p.dispatchFn = p.dispatch
	e.After(0, p.dispatchFn)
	return p
}

// retire drops a finished process from the live set.
func (e *Env) retire(p *Proc) {
	last := len(e.live) - 1
	q := e.live[last]
	e.live[p.slot], q.slot = q, p.slot
	e.live[last] = nil
	e.live = e.live[:last]
}

// Close ends every process parked on the Env: it resumes each one so that
// its pending park panics with a private value that unwinds the process,
// running its defers, and the process's coroutine returns to the shared
// pool. Parked coroutines are goroutines, which the garbage collector
// treats as roots, so without Close a run that ends with processes parked
// (a client waiting on a reply, a job adaptor) keeps everything they reach
// alive. Processes spawned but never started hold no coroutine and
// need nothing. Close must be called between events, never from one; the
// Env must not be stepped after it. A second Close does nothing.
func (e *Env) Close() {
	e.closed = true
	for n := len(e.live); n > 0; n = len(e.live) {
		p := e.live[n-1]
		p.dispatch()
		if !p.done {
			panic(fmt.Sprintf("sim: process %q survived Close", p.name))
		}
	}
}

// Name returns the process's diagnostic name.
func (p *Proc) Name() string { return p.name }

// dispatch switches to the process's coroutine and returns when the
// process yields again or finishes; the first dispatch takes a worker from
// the pool, and a finished process's worker goes back to it. It must only
// be called from the event loop (i.e., from within an event callback) or
// from Env.Close.
func (p *Proc) dispatch() {
	w := p.w
	if w == nil {
		if p.done {
			return
		}
		w = getWorker()
		w.p, p.w = p, w
		p.slot = len(p.env.live)
		p.env.live = append(p.env.live, p)
	}
	w.next()
	if p.done {
		p.w, p.fn = nil, nil
		putWorker(w)
	}
}

// park suspends the process coroutine and returns control to the event
// loop. The process must have arranged (before calling park) for some
// future event to call dispatch, or it will never run again (until
// Env.Close unwinds it).
func (p *Proc) park() {
	p.w.yield(struct{}{})
	if p.env.closed {
		panic(closeUnwind{})
	}
}

// Sleep suspends the process for d virtual nanoseconds. When the wakeup
// would be the very next event of the running Run or RunUntil loop, the
// process keeps running with the clock advanced instead of parking: the
// queue push and pop and the coroutine round trip are skipped, and the
// event order is the same (Env.AdvanceInPlace).
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		panic("sim: negative sleep")
	}
	if p.env.AdvanceInPlace(d) {
		return
	}
	p.env.After(d, p.dispatchFn)
	p.park()
}

// Completion is a one-shot event that processes and callbacks can wait on.
// It is the simulation analogue of a job-completion flag: Fire is idempotent
// and waiters registered after firing are released immediately.
type Completion struct {
	env   *Env
	fired bool
	fns   []func()
}

// NewCompletion returns an unfired completion bound to e.
func NewCompletion(e *Env) *Completion {
	return &Completion{env: e}
}

// Fire releases all current and future waiters. Subsequent calls are no-ops.
func (c *Completion) Fire() {
	if c.fired {
		return
	}
	c.fired = true
	fns := c.fns
	c.fns = nil
	for _, fn := range fns {
		c.env.After(0, fn)
	}
}

// OnFire registers a callback to run (as a fresh event) when the completion
// fires; if it has already fired the callback is scheduled immediately.
func (c *Completion) OnFire(fn func()) {
	if c.fired {
		c.env.After(0, fn)
		return
	}
	c.fns = append(c.fns, fn)
}

// Wait blocks the process until the completion fires.
func (p *Proc) Wait(c *Completion) {
	if c.fired {
		return
	}
	c.fns = append(c.fns, p.dispatchFn)
	p.park()
}

// Cond is a repeatable broadcast condition: Broadcast wakes every process
// and callback currently waiting (WaitCond, OnBroadcast), and subsequent
// waiters block until the next Broadcast. Unlike sync.Cond there is no lock — the simulation is
// single-threaded by construction.
type Cond struct {
	env *Env
	fns []func()
	// spare is the previous waiter slice, kept for reuse. Broadcast
	// ping-pongs fns and spare so the wait→broadcast→re-wait cycle that
	// dominates dispatcher hot loops stops reallocating a waiter slice per
	// round: After copies each func value into its timer record before
	// Broadcast returns, so the old backing array is immediately reusable.
	spare []func()
}

// NewCond returns a condition bound to e.
func NewCond(e *Env) *Cond { return &Cond{env: e} }

// OnBroadcast registers fn to run, as a fresh event at the current time,
// at the next Broadcast; like a waiting process, it is called once. A
// callback actor waits on c this way without a coroutine, and fills the
// same waiter slot a process does.
func (c *Cond) OnBroadcast(fn func()) {
	c.fns = append(c.fns, fn)
}

// Broadcast wakes all current waiters (as fresh events at the current time).
func (c *Cond) Broadcast() {
	fns := c.fns
	c.fns = c.spare[:0]
	for i, fn := range fns {
		c.env.After(0, fn)
		fns[i] = nil
	}
	c.spare = fns[:0]
}

// WaitCond blocks the process until the next Broadcast on c.
func (p *Proc) WaitCond(c *Cond) {
	c.OnBroadcast(p.dispatchFn)
	p.park()
}
