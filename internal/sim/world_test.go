package sim

import (
	"fmt"
	"runtime"
	"testing"
)

// worldLog records event executions per timeline. Each shard appends only
// to its own slice (and control events only to ctrl); lines() concatenates
// them into one comparable transcript afterward.
type worldLog struct {
	ctrl  []string
	shard [][]string
}

func newWorldLog(shards int) *worldLog {
	return &worldLog{shard: make([][]string, shards)}
}

func (l *worldLog) addCtrl(t Time, label string) {
	l.ctrl = append(l.ctrl, fmt.Sprintf("%d/ctrl/%s", int64(t), label))
}

func (l *worldLog) addShard(i int, t Time, label string) {
	l.shard[i] = append(l.shard[i], fmt.Sprintf("%d/s%d/%s", int64(t), i, label))
}

func (l *worldLog) lines() []string {
	out := append([]string{}, l.ctrl...)
	for _, s := range l.shard {
		out = append(out, s...)
	}
	return out
}

// TestWorldWindowInvariance: different windows are different simulations,
// but shard-local events (which never cross shards) must be
// window-independent — the window only affects cross-shard scheduling.
func TestWorldWindowInvariance(t *testing.T) {
	run := func(window Time) []string {
		w := NewWorld()
		w.SetWindow(window)
		defer w.Close()
		log := newWorldLog(4)
		for i := 0; i < 4; i++ {
			i := i
			s := w.AddShard()
			for k := 0; k < 30; k++ {
				k := k
				s.At(Time(k*17+i)*Microsecond, func() {
					log.addShard(i, s.Now(), fmt.Sprintf("tick%d", k))
				})
			}
		}
		w.Run()
		return log.lines()
	}
	a := run(0)
	b := run(200 * Microsecond)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("tick count differs across windows: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("tick %d differs across windows: %s vs %s", i, a[i], b[i])
		}
	}
}

// TestWorldCtrlNeverLate: a control event executes with every shard clock
// at exactly its timestamp — the horizon clamps to the next control event,
// so arrivals and fault injections are never distorted by the window.
func TestWorldCtrlNeverLate(t *testing.T) {
	w := NewWorld()
	w.SetWindow(Second) // absurdly large window: the clamp must still win
	defer w.Close()
	s0 := w.AddShard()
	s1 := w.AddShard()
	// Dense shard-local traffic so windows would love to run far ahead.
	for k := 0; k < 1000; k++ {
		s0.At(Time(k)*Microsecond, func() {})
	}
	checked := 0
	for _, at := range []Time{3 * Microsecond, 500*Microsecond + 1, 999 * Microsecond} {
		at := at
		w.Ctrl().At(at, func() {
			if s0.Now() != at || s1.Now() != at {
				t.Errorf("ctrl event at %v ran with shard clocks %v/%v", at, s0.Now(), s1.Now())
			}
			checked++
		})
	}
	w.Run()
	if checked != 3 {
		t.Fatalf("ran %d control events, want 3", checked)
	}
}

// TestWorldPostOrdering: posts merge into the control timeline in
// (timestamp, shard, emission-order) order, and each post executes at its
// emission timestamp on the control clock.
func TestWorldPostOrdering(t *testing.T) {
	w := NewWorld()
	w.SetWindow(100 * Microsecond)
	defer w.Close()
	var got []string
	for i := 0; i < 3; i++ {
		i := i
		s := w.AddShard()
		// Shard 2 emits at an earlier timestamp than shards 0/1; within a
		// shard, two posts at the same instant must keep emission order.
		at := 10 * Microsecond
		if i == 2 {
			at = 5 * Microsecond
		}
		s.At(at, func() {
			w.Post(i, func() {
				got = append(got, fmt.Sprintf("s%d-a@%v", i, w.Ctrl().Now()))
			})
			w.Post(i, func() {
				got = append(got, fmt.Sprintf("s%d-b@%v", i, w.Ctrl().Now()))
			})
		})
	}
	w.Run()
	want := []string{
		"s2-a@5.000µs", "s2-b@5.000µs",
		"s0-a@10.000µs", "s0-b@10.000µs",
		"s1-a@10.000µs", "s1-b@10.000µs",
	}
	if len(got) != len(want) {
		t.Fatalf("got %d posts, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("post %d = %q, want %q (all: %v)", i, got[i], want[i], got)
		}
	}
}

// postMix is the delivery log of TestWorldPostPostCallInterleave. Only
// control-timeline callbacks append to it.
type postMix struct {
	w   *World
	log []string
}

// postMixLog is the typed callback: ctx is the *postMix, arg packs
// shard<<8 | emission index.
func postMixLog(ctx any, arg uint64) {
	m := ctx.(*postMix)
	m.log = append(m.log, fmt.Sprintf("s%d-%d@%v", arg>>8, arg&0xff, m.w.Ctrl().Now()))
}

// TestWorldPostPostCallInterleave: closure posts (Post) and typed posts
// (PostCall) emitted by several shards at equal timestamps share one
// delivery order — (timestamp, shard, emission-order).
func TestWorldPostPostCallInterleave(t *testing.T) {
	want := []string{
		"s1-0@5.000µs", "s1-1@5.000µs", "s1-2@5.000µs", "s1-3@5.000µs",
		"s0-0@10.000µs", "s0-1@10.000µs", "s0-2@10.000µs", "s0-3@10.000µs",
		"s1-4@10.000µs", "s1-5@10.000µs", "s1-6@10.000µs", "s1-7@10.000µs",
		"s2-0@10.000µs", "s2-1@10.000µs", "s2-2@10.000µs", "s2-3@10.000µs",
	}
	w := NewWorld()
	m := &postMix{w: w}
	w.SetWindow(100 * Microsecond)
	for i := 0; i < 3; i++ {
		i := i
		s := w.AddShard()
		n := 0
		// Each burst alternates the two post forms, starting with the
		// typed one on odd shards so both orders meet at a tie.
		burst := func() {
			for k := 0; k < 4; k++ {
				arg := uint64(i)<<8 | uint64(n)
				n++
				if (k+i)%2 == 1 {
					w.PostCall(i, postMixLog, m, arg)
				} else {
					w.Post(i, func() { postMixLog(m, arg) })
				}
			}
		}
		if i == 1 {
			s.At(5*Microsecond, burst)
		}
		s.At(10*Microsecond, burst)
	}
	w.Run()
	w.Close()
	if fmt.Sprint(m.log) != fmt.Sprint(want) {
		t.Fatalf("delivery order\n got:  %v\n want: %v", m.log, want)
	}
}

// TestWorldRunUntil: clocks advance to exactly the limit, later events stay
// pending, and a second RunUntil picks them up.
func TestWorldRunUntil(t *testing.T) {
	w := NewWorld()
	defer w.Close()
	s := w.AddShard()
	var fired []Time
	for _, at := range []Time{Millisecond, 2 * Millisecond, 3 * Millisecond} {
		at := at
		s.At(at, func() { fired = append(fired, at) })
	}
	w.RunUntil(2 * Millisecond)
	if len(fired) != 2 {
		t.Fatalf("fired %d events by 2ms, want 2", len(fired))
	}
	if s.Now() != 2*Millisecond || w.Ctrl().Now() != 2*Millisecond {
		t.Fatalf("clocks = %v/%v, want 2ms", s.Now(), w.Ctrl().Now())
	}
	w.RunUntil(10 * Millisecond)
	if len(fired) != 3 {
		t.Fatalf("fired %d events total, want 3", len(fired))
	}
	if s.Now() != 10*Millisecond {
		t.Fatalf("shard clock = %v, want 10ms", s.Now())
	}
}

// TestWorldShardPanicDeterministic: a panic inside a shard window surfaces
// on the caller, and when several shards would panic in the same window
// the lowest-indexed shard's panic wins — deterministically.
func TestWorldShardPanicDeterministic(t *testing.T) {
	w := NewWorld()
	for i := 0; i < 4; i++ {
		i := i
		s := w.AddShard()
		s.At(Microsecond, func() {
			if i >= 1 { // shards 1..3 all panic in the same window
				panic(fmt.Sprintf("shard %d boom", i))
			}
		})
	}
	got := func() (r any) {
		defer func() { r = recover() }()
		defer w.Close()
		w.Run()
		return nil
	}()
	if got == nil {
		t.Fatal("shard panic did not propagate")
	}
	if s, ok := got.(string); !ok || s != "shard 1 boom" {
		t.Fatalf("propagated %v, want first shard's panic", got)
	}
}

// TestWorldProcsOnShards: Proc coroutines work on the shard Envs of a
// World.
func TestWorldProcsOnShards(t *testing.T) {
	w := NewWorld()
	defer w.Close()
	counts := make([]int, 4)
	for i := 0; i < 4; i++ {
		i := i
		s := w.AddShard()
		s.Spawn("worker", func(p *Proc) {
			for k := 0; k < 50; k++ {
				p.Sleep(7 * Microsecond)
				counts[i]++
			}
		})
	}
	w.Run()
	for i, n := range counts {
		if n != 50 {
			t.Fatalf("shard %d proc completed %d iterations, want 50", i, n)
		}
	}
}

// TestWorldStartsNoGoroutines: a World runs its windows inline, so it
// starts no goroutine that could outlive Close or spin while the World is
// idle between RunUntil calls.
func TestWorldStartsNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	w := NewWorld()
	defer w.Close()
	for i := 0; i < 4; i++ {
		i := i
		s := w.AddShard()
		var tick func()
		tick = func() {
			w.Post(i, func() {})
			if s.Now() < 200*Microsecond {
				s.After(Time(i+1)*Microsecond, tick)
			}
		}
		s.At(0, tick)
	}
	for _, limit := range []Time{100 * Microsecond, Millisecond} {
		w.RunUntil(limit)
		if n := runtime.NumGoroutine(); n > base {
			t.Fatalf("after RunUntil(%v): %d goroutines, %d before the world", limit, n, base)
		}
	}
}

// TestWorldNegativeWindowPanics guards the Δ precondition.
func TestWorldNegativeWindowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative window accepted")
		}
	}()
	NewWorld().SetWindow(-1)
}

// TestWorldAccessors covers the trivial surface.
func TestWorldAccessors(t *testing.T) {
	w := NewWorld()
	defer w.Close()
	if w.window != DefaultWindow {
		t.Fatalf("default window = %v", w.window)
	}
	s := w.AddShard()
	if w.NumShards() != 1 || w.Shard(0) != s {
		t.Fatal("shard bookkeeping broken")
	}
	if w.Ctrl() == nil {
		t.Fatal("nil control env")
	}
}
