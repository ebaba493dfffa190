package sim

import "sort"

// This file implements the World's speculative execution mode: shards run
// ahead of the conservative horizon into a checkpointed speculation region
// and roll back — optimistic synchronization in the Time Warp tradition —
// when a control-timeline event lands inside the window they already
// executed.
//
// Mode contract. Conservative mode (the default) clamps every window to the
// next control event, so control events always run with the shards parked
// at exactly the control clock: cross-timeline effects are exact, and the
// engine pays a barrier per control event. Speculative mode removes that
// clamp: the horizon is now + Δcur for an adaptive Δcur ∈ [Window,
// SpeculationCeiling] that doubles after every quiet window (no
// cross-timeline traffic) and collapses back to Window on contact. The
// reduced barrier count is the throughput win; the price is that
// cross-timeline effects inside a window are either replayed exactly via
// checkpoint rollback (shards registered with RegisterCheckpoint) or
// deferred to the window barrier (everything else). Like the Δ knob itself,
// speculation therefore selects a *different, equally valid* simulation —
// but serial and parallel execution of a speculative run remain
// bit-identical, because every speculation decision (what rolled back, what
// was deferred, in what order) is taken single-threaded by the coordinator
// with all shards parked.
//
// Rollback exactness. A rolled-back shard restores model state (via its
// Checkpointable) and its pending-event set to the window start, replays
// deterministically to each injection's timestamp, applies the injection,
// and re-runs to the horizon. The replay executes the same records with the
// same (time, seq) keys, so the interleaving with injected work is exactly
// what a conservative run would have produced. Posts the shard emitted
// during the discarded attempt are discarded with it and re-collected from
// the replay.

// Checkpointable is model state that can be snapshotted and restored for
// speculative rollback. SaveCheckpoint returns an opaque deep copy;
// RestoreCheckpoint reinstates it. A shard registered with
// World.RegisterCheckpoint must keep all its mutable simulation state
// reachable from its Checkpointable, and must use callback actors only:
// a Proc blocked mid-wait is a suspended coroutine whose stack cannot be
// rewound.
type Checkpointable interface {
	SaveCheckpoint() any
	RestoreCheckpoint(any)
}

// EnvCheckpoint is a snapshot of an Env's clock, counters, and pending
// events, taken by Env.Checkpoint and reinstated by Env.Restore.
type EnvCheckpoint struct {
	now   Time
	seq   uint64
	steps uint64
	recs  []timerRec // pending records in ascending seq order
}

// Checkpoint snapshots the environment: clock, sequence and step counters,
// and every pending (uncancelled) event. Callback words are copied by
// value; the snapshot does not deep-copy what ctx values point at — model
// state is the Checkpointable's business.
func (e *Env) Checkpoint() *EnvCheckpoint {
	ck := &EnvCheckpoint{now: e.now, seq: e.seq, steps: e.steps}
	for i := range e.arena.recs {
		r := &e.arena.recs[i]
		if r.bkt == bktNone || r.gen&1 == 1 {
			continue // free, mid-fire, or cancelled-pending-removal
		}
		ck.recs = append(ck.recs, timerRec{at: r.at, seq: r.seq, fn: r.fn, cb: r.cb, ctx: r.ctx, arg: r.arg})
	}
	sort.Slice(ck.recs, func(a, b int) bool { return ck.recs[a].seq < ck.recs[b].seq })
	return ck
}

// Restore rewinds the environment to a checkpoint: the clock, counters, and
// pending-event set return to their snapshotted values. Timer handles
// issued between the checkpoint and the restore — and handles for events
// that were pending at the checkpoint — become inert (Cancel no-ops,
// Stopped reports false): the arena is recycled underneath them, never
// shrunk, so stale handles stay in range and fail their generation check.
func (e *Env) Restore(ck *EnvCheckpoint) {
	// Retire every queued record through the cancellation path (generation
	// goes odd), then reset the queue containers wholesale.
	for i := range e.arena.recs {
		r := &e.arena.recs[i]
		if r.bkt == bktNone || r.gen&1 == 1 {
			if r.bkt != bktNone {
				// Cancel-marked immediate entry: detach and retire.
				r.bkt = bktNone
				e.arena.freeMarked(int32(i))
			}
			continue
		}
		r.bkt = bktNone
		e.arena.freeCancelled(int32(i))
	}
	e.events.reset()
	e.immFirst, e.immLen, e.immDead = 0, 0, 0
	e.now, e.steps = ck.now, ck.steps
	for k := range ck.recs {
		r := &ck.recs[k]
		e.seq = r.seq // schedule() stamps the record with e.seq
		e.schedule(r.at, r.fn, r.cb, r.ctx, r.arg)
	}
	e.seq = ck.seq
	e.mut++
}

// reset empties the queue, dropping every bucket and heap entry. The arena
// records themselves are the caller's to reconcile.
func (q *eventQueue) reset() {
	q.h = q.h[:0]
	for i := range q.buckets {
		q.buckets[i] = bucket{}
	}
	q.buckets = q.buckets[:0]
	q.bfree = q.bfree[:0]
	q.lastB = -1
	q.size = 0
}

// SpecStats counts speculative-mode activity.
type SpecStats struct {
	// Windows is the number of speculative windows executed.
	Windows uint64
	// Widened counts quiet windows that doubled the adaptive Δ.
	Widened uint64
	// Rollbacks counts shard rewinds (one per rolled-back shard-window).
	Rollbacks uint64
	// Replayed counts injections applied exactly via rollback-replay.
	Replayed uint64
	// Deferred counts injections applied at the window barrier because the
	// target shard has no checkpoint support.
	Deferred uint64
}

// injection is one control→shard crossing discovered during a speculative
// window, recorded for rollback-replay in control execution order.
type injection struct {
	at Time
	fn func()
}

// SetSpeculative switches the World between the conservative window
// protocol (default) and speculative execution. Toggle only between runs.
func (w *World) SetSpeculative(on bool) {
	w.speculative = on
	if on && w.specMax == 0 {
		w.specMax = 16 * w.window
	}
	w.curWindow = 0 // re-derive on next run
}

// Speculative reports whether speculative execution is on.
func (w *World) Speculative() bool { return w.speculative }

// SetSpeculationCeiling bounds the adaptive window. It must be at least the
// base window.
func (w *World) SetSpeculationCeiling(d Time) {
	if d < w.window {
		panic("sim: speculation ceiling below base window")
	}
	w.specMax = d
}

// SpecStats returns speculative-mode counters.
func (w *World) SpecStats() SpecStats { return w.specStats }

// RegisterCheckpoint gives shard i rollback support: control events that
// inject into the shard mid-window (World.Inject) rewind model state via c
// and the shard Env via Checkpoint/Restore, then replay exactly. Shards
// without a registration fall back to barrier-deferred injection.
//
// Once a shard is registered, every control→shard crossing into it MUST go
// through Inject: an event scheduled directly onto the shard's Env from a
// control handler would be erased — not replayed — if a later injection in
// the same window forces a rollback.
func (w *World) RegisterCheckpoint(i int, c Checkpointable) {
	if w.ckpt == nil {
		w.ckpt = make([]Checkpointable, len(w.shards))
	}
	w.ckpt[i] = c
}

// Inject runs fn against shard i's state from a control event. It is the
// canonical ctrl→shard crossing:
//
//   - Conservative mode: fn runs immediately — the shard is parked at the
//     barrier, which the window clamp pinned to the control clock, so the
//     crossing is exact.
//   - Speculative mode, shard registered via RegisterCheckpoint: the
//     injection is recorded; after the control window the shard rolls back
//     to its checkpoint, replays to the control timestamp, applies fn, and
//     re-runs — exact again, at the cost of the rollback.
//   - Speculative mode, unregistered shard: fn runs at the window barrier
//     with the shard parked at the horizon — deferred by at most the
//     current adaptive window, mirroring the Δ distortion of Post.
//
// fn may mutate shard state directly and schedule onto the shard's Env; it
// must not touch other shards.
func (w *World) Inject(i int, fn func()) {
	if !w.speculative {
		fn()
		return
	}
	if i < len(w.ckpt) && w.ckpt[i] != nil && w.inj != nil {
		w.inj[i] = append(w.inj[i], injection{at: w.ctrl.now, fn: fn})
		return
	}
	w.specStats.Deferred++
	w.deferredThisWindow++
	fn()
}

// saveCheckpoints snapshots every registered shard at the window start.
func (w *World) saveCheckpoints() {
	if w.ckpt == nil {
		return
	}
	if w.saved == nil {
		w.saved = make([]*EnvCheckpoint, len(w.shards))
		w.savedState = make([]any, len(w.shards))
		w.inj = make([][]injection, len(w.shards))
	}
	for i, c := range w.ckpt {
		if c == nil {
			continue
		}
		w.saved[i] = w.shards[i].Checkpoint()
		w.savedState[i] = c.SaveCheckpoint()
	}
}

// settleInjections resolves the window's recorded injections by rollback
// and exact replay. It reports whether any injection occurred (rollback or
// deferred) this window.
func (w *World) settleInjections(h Time) bool {
	touched := w.deferredThisWindow > 0
	w.deferredThisWindow = 0
	if w.inj == nil {
		return touched
	}
	for i := range w.inj {
		if len(w.inj[i]) == 0 {
			continue
		}
		touched = true
		s := w.shards[i]
		w.specStats.Rollbacks++
		// Discard the speculative attempt: posts it emitted are garbage.
		w.posts[i] = w.posts[i][:0]
		s.Restore(w.saved[i])
		w.ckpt[i].RestoreCheckpoint(w.savedState[i])
		for _, in := range w.inj[i] {
			s.RunUntil(in.at)
			in.fn()
			w.specStats.Replayed++
		}
		s.RunUntil(h)
		w.inj[i] = w.inj[i][:0]
	}
	return touched
}

// flushPostsAt merges the shard outboxes like flushPosts but delivers every
// message at barrier time h — the control clock has already passed the
// emission timestamps. Merge order is still the canonical (timestamp,
// shard, emission-order), preserved at h by the control Env's FIFO
// sequencing. It reports whether anything was delivered.
func (w *World) flushPostsAt(h Time) bool {
	if w.merge == nil || len(w.merge) < len(w.posts) {
		w.merge = make([]int, len(w.posts))
	}
	hp := w.mheap[:0]
	for i := range w.posts {
		if len(w.posts[i]) > 0 {
			w.merge[i] = 0
			hp = append(hp, mergeEnt{at: w.posts[i][0].at, shard: int32(i)})
		}
	}
	if len(hp) == 0 {
		w.mheap = hp
		return false
	}
	for i := len(hp)/2 - 1; i >= 0; i-- {
		mergeSiftDown(hp, i)
	}
	for len(hp) > 0 {
		i := int(hp[0].shard)
		p := w.posts[i][w.merge[i]]
		w.posts[i][w.merge[i]] = wpost{}
		w.merge[i]++
		if p.cb != nil {
			w.ctrl.DoCall(h, p.cb, p.ctx, p.arg)
		} else {
			w.ctrl.Do(h, p.fn)
		}
		if w.merge[i] < len(w.posts[i]) {
			hp[0].at = w.posts[i][w.merge[i]].at
		} else {
			hp[0] = hp[len(hp)-1]
			hp = hp[:len(hp)-1]
		}
		if len(hp) > 1 {
			mergeSiftDown(hp, 0)
		}
	}
	for i := range w.posts {
		w.posts[i] = w.posts[i][:0]
	}
	w.mheap = hp[:0]
	return true
}

// runSpec is the speculative main loop shared by Run and RunUntil.
func (w *World) runSpec(limit Time, bounded bool) {
	if w.curWindow < w.window {
		w.curWindow = w.window
	}
	if w.specMax < w.window {
		w.specMax = 16 * w.window
	}
	w.flushPosts() // leftovers from a previous conservative run
	for {
		t, ok := w.nextTime()
		if !ok || (bounded && t > limit) {
			break
		}
		h := t + w.curWindow
		if bounded && h > limit {
			h = limit
		}
		w.specStats.Windows++
		w.saveCheckpoints()
		w.runShards(h)
		w.ctrl.RunUntil(h)
		touched := w.settleInjections(h)
		posted := w.flushPostsAt(h)
		if touched || posted {
			w.curWindow = w.window
		} else if w.curWindow < w.specMax {
			w.curWindow *= 2
			if w.curWindow > w.specMax {
				w.curWindow = w.specMax
			}
			w.specStats.Widened++
		}
	}
	if bounded {
		for _, s := range w.shards {
			if s.now < limit {
				s.now = limit
			}
		}
		w.ctrl.RunUntil(limit)
	}
}
