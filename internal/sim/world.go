package sim

// World executes a multi-replica simulation as one control Env plus N shard
// Envs under a conservative time-window protocol (Chandy–Misra style
// lookahead). Each shard holds a fully isolated replica — in the Paella
// cluster, a dispatcher with its private GPU, cudart/PCIe link, and VRAM
// state (§4, Figure 5) — and replicas only interact through the control
// shard: routing decisions, failover, and terminal-event delivery.
//
// The execution loop repeats:
//
//  1. t  = earliest pending event across every shard and the control Env.
//  2. H  = min(t+Δ, next control event, run limit) — the window horizon.
//     Clamping to the next control event means control events (request
//     arrivals, crash injections) never execute late; only the Δ-bounded
//     batching below is approximate.
//  3. Every shard runs its own events up to and including H, then advances
//     its clock to exactly H. Shards share no state, so any interleaving
//     of this step commutes; it runs inline, in shard order.
//  4. Cross-shard messages emitted during the window (World.Post) are
//     pushed into the control queue shard by shard, each shard's in
//     emission order; the queue fires them in canonical (timestamp, shard,
//     emission-order) order.
//  5. The control Env runs its events up to H. Control events execute as
//     serialization points: all shards are parked at exactly H, so a
//     control event may read or write any replica's state directly.
//
// Determinism argument: within a window each shard's event order is fixed
// by its own (time, scheduling order) event queue; shards touch only their
// own state, so the order in which step 3 runs the shards cannot change any
// outcome. Every cross-shard effect funnels through step 4's posts or
// through control events, both of which are ordered by timestamp and shard
// index, not by execution order: step 4 pushes the outboxes in shard
// order, and the control queue breaks equal timestamps by push order.
// Hence results do not depend on shard execution order, and a World run
// repeats byte for byte — same metrics, same trace bytes — for every seed.
//
// The window Δ is a fidelity/overhead knob, not a correctness knob: a
// posted message carries its emission timestamp and executes on the
// control timeline at that timestamp, but by then the shard clocks have
// advanced to H, so follow-on work it schedules into a replica lands up to
// Δ late. Δ=0 removes the distortion at the cost of a barrier per distinct
// event time. For any Δ results do not depend on shard execution order;
// different Δ values are different (equally valid) simulations.
type World struct {
	ctrl   *Env
	shards []*Env
	window Time

	// posts[i] is shard i's outbox. During a window only shard i's events
	// append to it; the barrier drains it.
	posts [][]wpost
}

// wpost is one cross-shard message: the typed callback cb(ctx, arg) to run
// on the control timeline at time at.
type wpost struct {
	at  Time
	cb  EventFn
	ctx any
	arg uint64
}

// DefaultWindow is the default conservative window Δ. It is comfortably
// above the dispatcher's per-job costs (admit ≈1.5µs, dispatch ≈2µs) so a
// window amortizes many events, yet small against the millisecond-scale
// inference latencies the experiments measure.
const DefaultWindow Time = 50 * Microsecond

// NewWorld returns a world with a control Env, no shards and the default
// window.
func NewWorld() *World {
	return &World{ctrl: NewEnv(), window: DefaultWindow}
}

// Ctrl returns the control Env. Request generators, fault injectors, and
// anything else that spans replicas must schedule here.
func (w *World) Ctrl() *Env { return w.ctrl }

// AddShard creates and returns a new shard Env. All shards must be added
// before the first Run/RunUntil call.
func (w *World) AddShard() *Env {
	e := NewEnv()
	w.shards = append(w.shards, e)
	w.posts = append(w.posts, nil)
	return e
}

// Shard returns shard i's Env.
func (w *World) Shard(i int) *Env { return w.shards[i] }

// NumShards returns the number of shards.
func (w *World) NumShards() int { return len(w.shards) }

// SetWindow sets the conservative window Δ. Must not be negative.
func (w *World) SetWindow(d Time) {
	if d < 0 {
		panic("sim: negative world window")
	}
	w.window = d
}

// SetParallel does nothing. It stays only because the repository
// benchmark (bench/workloads.go) still calls it; every window runs inline
// on the calling goroutine (DESIGN §8.1). Delete it once that call goes.
func (w *World) SetParallel(bool) {}

// Post enqueues fn to run on the control timeline at the emitting shard's
// current time. It is the only legal way for code executing on a shard to
// affect the control shard or another replica: the callback runs at the
// next barrier, with every shard parked, in canonical (timestamp, shard,
// emission-order) order.
func (w *World) Post(shard int, fn func()) { w.PostCall(shard, callFunc, fn, 0) }

// callFunc is the EventFn through which Post delivers a plain func(). A func
// value is pointer-shaped, so boxing it in ctx allocates nothing.
func callFunc(ctx any, _ uint64) { ctx.(func())() }

// PostCall is the allocation-free form of Post: cb runs on the control
// timeline as cb(ctx, arg) at the emitting shard's current time. Hot
// cross-shard paths (per-request completions) use it to avoid minting a
// closure per message.
func (w *World) PostCall(shard int, cb EventFn, ctx any, arg uint64) {
	w.posts[shard] = append(w.posts[shard], wpost{at: w.shards[shard].now, cb: cb, ctx: ctx, arg: arg})
}

// Run executes events until no shard and the control Env have any left.
func (w *World) Run() {
	w.flushPosts()
	for {
		t, ok := w.nextTime()
		if !ok {
			return
		}
		h := t + w.window
		if ct, o := w.ctrl.NextEventTime(); o && ct < h {
			h = ct
		}
		w.stepWindow(h)
	}
}

// RunUntil executes all events due at or before limit, then advances every
// clock to exactly limit.
func (w *World) RunUntil(limit Time) {
	w.flushPosts()
	for {
		t, ok := w.nextTime()
		if !ok || t > limit {
			break
		}
		h := t + w.window
		if ct, o := w.ctrl.NextEventTime(); o && ct < h {
			h = ct
		}
		if h > limit {
			h = limit
		}
		w.stepWindow(h)
	}
	for _, s := range w.shards {
		if s.now < limit {
			s.now = limit
		}
	}
	w.ctrl.RunUntil(limit)
}

// Close ends the processes parked on the control Env and on every shard
// (Env.Close), so that nothing they reach outlives the world's owner. A
// World starts no goroutine of its own. The world must not be run again
// after Close; a second Close does nothing.
func (w *World) Close() {
	w.ctrl.Close()
	for _, s := range w.shards {
		s.Close()
	}
}

// stepWindow runs one window to horizon h: shards, then the post flush,
// then the control events — the serialization point.
func (w *World) stepWindow(h Time) {
	w.runShards(h)
	w.flushPosts()
	w.ctrl.RunUntil(h)
}

// nextTime returns the earliest pending event time across all Envs.
func (w *World) nextTime() (Time, bool) {
	best, ok := w.ctrl.NextEventTime()
	for _, s := range w.shards {
		if t, o := s.NextEventTime(); o && (!ok || t < best) {
			best, ok = t, true
		}
	}
	return best, ok
}

// runShards executes every shard's events up to and including h, in shard
// order on the calling goroutine, and advances all shard clocks to exactly
// h.
func (w *World) runShards(h Time) {
	for _, s := range w.shards {
		s.RunUntil(h)
	}
}

// flushPosts drains every shard outbox into the control queue: shard 0's
// posts in emission order, then shard 1's, and so on. The control queue
// fires equal-time events in push order, so the posts fire in the
// canonical (timestamp, shard, emission-order) total order, after any
// control event already queued for the same timestamp, regardless of how
// the window was executed.
func (w *World) flushPosts() {
	for i, out := range w.posts {
		for _, p := range out {
			w.ctrl.DoCall(p.at, p.cb, p.ctx, p.arg)
		}
		clear(out)
		w.posts[i] = out[:0]
	}
}
