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
	// w is the coroutine running the process; nil once it has finished.
	w    *worker
	done bool
	// dispatchFn is the preallocated wakeup closure. Sleep/Wait/WaitCond
	// run once per simulated operation on hot paths; reusing one closure
	// (and the pooled timer arena) keeps wakeups allocation-free.
	dispatchFn func()
}

// worker is a coroutine that runs processes one after another: when a
// process returns, its worker parks in idleWorkers until a later Spawn
// hands it the next one. Reuse saves a goroutine start per process, and it
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
	// and one whose process blocks forever is abandoned with its Env.
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

// run executes the process function. A panic ends the worker's coroutine:
// iter.Pull re-raises it from next(), i.e. inside the event callback that
// resumed the process, so it surfaces from Env.Step.
func (p *Proc) run() {
	defer func() {
		p.done = true
		if r := recover(); r != nil {
			panic(fmt.Sprintf("sim: process %q panicked: %v", p.name, r))
		}
	}()
	p.fn(p)
}

// Spawn starts fn as a new simulation process. The process begins running
// at the current virtual time, after the currently-executing event returns.
// The name appears in panic messages only. A panic inside fn resurfaces
// from the Env.Step call that resumed the process, as
// "sim: process <name> panicked: <value>".
func (e *Env) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{env: e, name: name, fn: fn, w: getWorker()}
	p.w.p = p
	p.dispatchFn = p.dispatch
	e.After(0, p.dispatchFn)
	return p
}

// Done reports whether the process function has returned.
func (p *Proc) Done() bool { return p.done }

// Name returns the process's diagnostic name.
func (p *Proc) Name() string { return p.name }

// Env returns the environment the process runs in.
func (p *Proc) Env() *Env { return p.env }

// dispatch switches to the process's coroutine and returns when the
// process yields again or finishes; a finished process's worker goes back
// to the pool. It must only be called from the event loop (i.e., from
// within an event callback).
func (p *Proc) dispatch() {
	w := p.w
	if w == nil {
		return
	}
	w.next()
	if p.done {
		p.w, p.fn = nil, nil
		putWorker(w)
	}
}

// park suspends the process coroutine and returns control to the event
// loop. The process must have arranged (before calling park) for some
// future event to call dispatch, or it will never run again.
func (p *Proc) park() { p.w.yield(struct{}{}) }

// Sleep suspends the process for d virtual nanoseconds. When the wakeup
// would be the very next event of the running Run or RunUntil loop, the
// process keeps running with the clock advanced instead of parking: the
// queue push and pop and the coroutine round trip are skipped, and the
// event order is the same (Env.wakeInPlace).
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		panic("sim: negative sleep")
	}
	if p.env.wakeInPlace(p.env.now + d) {
		return
	}
	p.env.After(d, p.dispatchFn)
	p.park()
}

// Yield suspends the process and reschedules it at the current virtual time,
// letting other events due now run first.
func (p *Proc) Yield() { p.Sleep(0) }

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

// Fired reports whether Fire has been called.
func (c *Completion) Fired() bool { return c.fired }

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
// and callback currently waiting, and subsequent waiters block until the
// next Broadcast. Unlike sync.Cond there is no lock — the simulation is
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

// Waiters returns the number of registered waiters.
func (c *Cond) Waiters() int { return len(c.fns) }

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
	c.fns = append(c.fns, p.dispatchFn)
	p.park()
}
