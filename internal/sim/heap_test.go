package sim

import (
	"math"
	"math/bits"
	"math/rand"
	"sort"
	"testing"
)

// qrig wires an eventQueue to an arena the way an Env does, letting the
// queue be exercised in isolation. now is the due time of the last pop:
// like Env, the rig never pushes below it.
type qrig struct {
	a   arena
	q   eventQueue
	now Time
	ord uint64 // pushes so far: the model's tiebreak
}

func newQrig() *qrig {
	r := &qrig{}
	r.a.freeHead = -1
	return r
}

// qitem mirrors one pushed record in the model's own storage, so model
// entries stay readable even after a popped record is recycled.
type qitem struct {
	idx int32
	at  Time
	ord uint64
}

func (r *qrig) push(at Time) qitem {
	if at < r.now {
		panic("qrig: push below the last pop")
	}
	i := r.a.alloc()
	r.q.push(i, at)
	r.ord++
	return qitem{idx: i, at: at, ord: r.ord}
}

func (r *qrig) pop() (int32, Time) {
	i, at := r.q.pop()
	r.now = at
	return i, at
}

// maxT keeps drawn due times clear of int64 overflow.
const maxT = Time(1<<63 - 1)

// queueDelay draws a delay the way Env traffic spreads them: zero, a few
// ns, a µs-scale gap, or a power of two plus jitter below it — up to 2^40
// mostly, up to 2^62 one draw in 32, so the clock rarely saturates. It
// never carries now past maxT.
func queueDelay(rng *rand.Rand, now Time) Time {
	var d Time
	switch rng.Intn(4) {
	case 0:
	case 1:
		d = Time(1 + rng.Intn(8))
	case 2:
		d = Time(rng.Intn(2000))
	default:
		e := rng.Intn(41)
		if rng.Intn(8) == 0 {
			e = rng.Intn(63)
		}
		p := Time(1) << e
		d = p + Time(rng.Int63n(int64(p)))
	}
	if d > maxT-now {
		d = Time(rng.Int63n(int64(maxT - now + 1)))
	}
	return d
}

// queueBurst pushes n records: a fresh due time at now+delay two times in
// three, otherwise at `at` again (a burst continuing across pops, which
// stays legal while at ≥ now). It returns the pushed items and the burst's
// due time.
func queueBurst(rng *rand.Rand, r *qrig, at Time, n int) ([]qitem, Time) {
	if at < r.now || rng.Intn(3) > 0 {
		at = r.now + queueDelay(rng, r.now)
	}
	out := make([]qitem, n)
	for k := range out {
		out[k] = r.push(at)
	}
	return out, at
}

func itemLess(x, y qitem) bool {
	if x.at != y.at {
		return x.at < y.at
	}
	return x.ord < y.ord
}

// TestQueuePopOrderMatchesSort: the radix queue pops records in exact
// (at, push order) — the total order every simulation outcome rests on.
// Each trial runs several rounds on one queue, each pushing a batch at or
// after the last pop and draining it, so rounds start from varied last
// values and their zero delays land in bucket 0.
func TestQueuePopOrderMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		r := newQrig()
		for round := 0; round < 8; round++ {
			var ref []qitem
			at := r.now
			for n := 1 + rng.Intn(200); len(ref) < n; {
				var b []qitem
				b, at = queueBurst(rng, r, at, 1+rng.Intn(6))
				ref = append(ref, b...)
			}
			sort.Slice(ref, func(a, b int) bool { return itemLess(ref[a], ref[b]) })
			for i, want := range ref {
				if got, at := r.pop(); got != want.idx || at != want.at {
					t.Fatalf("trial %d round %d: pop %d = (idx=%d at=%d), want (idx=%d at=%d)",
						trial, round, i, got, at, want.idx, want.at)
				}
			}
			if r.q.len() != 0 {
				t.Fatalf("queue not drained: %d left", r.q.len())
			}
		}
	}
}

// TestQueueAgainstModel cross-checks the radix queue against a sorted
// reference under a randomized push/pop/pop-and-free workload. Records
// freed by a pop-and-free are recycled into later pushes, so the workload
// also exercises arena index reuse under live traffic.
func TestQueueAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	r := newQrig()
	var live []qitem
	popMin := func() qitem {
		best := 0
		for i, x := range live {
			if itemLess(x, live[best]) {
				best = i
			}
		}
		x := live[best]
		live = append(live[:best], live[best+1:]...)
		return x
	}
	check := func(op int) int32 {
		want := popMin()
		got, at := r.pop()
		if got != want.idx || at != want.at {
			t.Fatalf("op %d: pop (idx=%d at=%d), want (idx=%d at=%d)", op, got, at, want.idx, want.at)
		}
		return got
	}
	var at Time
	for op := 0; op < 5000; op++ {
		switch r2 := rng.Intn(10); {
		case r2 < 5: // push a small burst
			var b []qitem
			b, at = queueBurst(rng, r, at, 1+rng.Intn(4))
			live = append(live, b...)
		default: // pop min; two pops in three also free the record
			if r.q.len() == 0 {
				continue
			}
			if got := check(op); r2 >= 8 {
				r.a.free(got)
			}
		}
		if r.q.len() != len(live) {
			t.Fatalf("op %d: queue len %d, model %d", op, r.q.len(), len(live))
		}
	}
	for r.q.len() > 0 {
		check(-1)
	}
	if len(live) != 0 {
		t.Fatalf("model not drained: %d left", len(live))
	}
}

// TestQueueInvariants: after every operation, each record sits in bucket
// Len(at ^ last), a mask bit is set exactly when its bucket is non-empty,
// each non-empty bucket's stored minimum is its smallest due time, and the
// size counter equals the number of resident records — the invariants
// pop's exactness and minAt rest on.
func TestQueueInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	r := newQrig()
	q := &r.q
	check := func(op int) {
		total := 0
		for k := range q.b {
			ents := q.b[k].ents
			if k == 0 {
				ents = ents[q.head:]
			}
			if nonEmpty := q.mask&(1<<k) != 0; nonEmpty != (len(ents) > 0) {
				t.Fatalf("op %d: bucket %d holds %d records, mask bit %v", op, k, len(ents), nonEmpty)
			}
			if len(ents) == 0 {
				continue
			}
			least := ents[0].at
			for _, x := range ents {
				if b := bits.Len64(uint64(x.at ^ q.last)); b != k {
					t.Fatalf("op %d: record at=%d sits in bucket %d, want %d (last=%d)", op, x.at, k, b, q.last)
				}
				least = min(least, x.at)
			}
			if q.b[k].min != least {
				t.Fatalf("op %d: bucket %d min %d, smallest at %d", op, k, q.b[k].min, least)
			}
			total += len(ents)
		}
		if total != q.len() {
			t.Fatalf("op %d: size %d, counted %d resident", op, q.len(), total)
		}
	}
	var at Time
	for op := 0; op < 4000; op++ {
		switch {
		case rng.Intn(3) > 0 || q.len() == 0:
			_, at = queueBurst(rng, r, at, 1+rng.Intn(4))
		case rng.Intn(2) == 0:
			r.pop()
		default: // pop and free: the index returns to the arena for reuse
			i, _ := r.pop()
			r.a.free(i)
		}
		check(op)
	}
}

// TestArenaRecycles: fired records return to the index-linked free list and
// are reused, so the arena's footprint is the run's high-water mark of
// concurrently pending events — not the total event count — and every
// live record is a pending event.
func TestArenaRecycles(t *testing.T) {
	e := NewEnv()
	ran := 0
	for i := 0; i < 100; i++ {
		e.After(Time(i), func() { ran++ })
	}
	e.Run()
	if ran != 100 {
		t.Fatalf("ran %d events, want 100", ran)
	}
	if e.arena.nfree == 0 {
		t.Fatal("freelist empty after events fired")
	}
	highWater := len(e.arena.recs)
	// Steady-state: one event in flight at a time reuses one record.
	for i := 0; i < 50; i++ {
		e.After(1, func() { ran++ })
		e.Run()
	}
	if len(e.arena.recs) != highWater {
		t.Fatalf("arena grew in steady state: %d -> %d", highWater, len(e.arena.recs))
	}
	// Live traffic: every firing event schedules a successor, so records
	// are freed and reused while others stay pending.
	fired := 0
	var tick func()
	tick = func() {
		if e.arena.live() != e.Pending() {
			t.Fatalf("%d live records, %d pending events", e.arena.live(), e.Pending())
		}
		if fired++; fired < 500 {
			e.After(Time(1+fired%7), tick)
		}
	}
	for i := 0; i < 20; i++ {
		e.After(Time(i), tick)
	}
	e.Run()
	if len(e.arena.recs) != highWater {
		t.Fatalf("arena grew under live traffic: %d -> %d", highWater, len(e.arena.recs))
	}
	if e.arena.live() != 0 {
		t.Fatalf("%d records leaked", e.arena.live())
	}
}

// TestDoSchedulingAllocFree: in steady state the schedule+fire cycle
// performs no per-event allocations (the closure passed in is the caller's
// concern; here it is preallocated, as on the Proc wakeup path).
func TestDoSchedulingAllocFree(t *testing.T) {
	e := NewEnv()
	fn := func() {}
	// Warm the arena.
	e.After(0, fn)
	e.Run()
	avg := testing.AllocsPerRun(1000, func() {
		e.After(1, fn)
		e.Step()
	})
	if avg != 0 {
		t.Fatalf("schedule+fire allocates %.1f per event, want 0", avg)
	}
}

// TestDoCallAllocFree: the typed-callback path stays allocation-free even
// when the context is freshly boxed per call site — the arena record holds
// the interface words inline.
func TestDoCallAllocFree(t *testing.T) {
	e := NewEnv()
	type target struct{ hits uint64 }
	tgt := &target{}
	cb := func(ctx any, arg uint64) { ctx.(*target).hits += arg }
	e.DoCallAfter(0, cb, tgt, 1)
	e.Run()
	avg := testing.AllocsPerRun(1000, func() {
		e.DoCallAfter(1, cb, tgt, 2)
		e.Step()
	})
	if avg != 0 {
		t.Fatalf("DoCall schedule+fire allocates %.1f per event, want 0", avg)
	}
	if tgt.hits == 0 {
		t.Fatal("typed callback never ran")
	}
}

// TestProcSleepAllocFree: a process sleep cycle reuses the preallocated
// dispatch closure and an arena record — zero allocations per wakeup.
func TestProcSleepAllocFree(t *testing.T) {
	e := NewEnv()
	stop := false
	e.Spawn("sleeper", func(p *Proc) {
		for !stop {
			p.Sleep(Microsecond)
		}
	})
	e.RunFor(10 * Microsecond) // warm up
	avg := testing.AllocsPerRun(500, func() {
		e.RunFor(Microsecond)
	})
	stop = true
	e.RunFor(Microsecond)
	if avg > 0 {
		t.Fatalf("proc sleep cycle allocates %.2f per wakeup, want 0", avg)
	}
}

// TestNextEventTime covers the World engine's window-sizing peek.
func TestNextEventTime(t *testing.T) {
	e := NewEnv()
	if _, ok := e.NextEventTime(); ok {
		t.Fatal("empty env reports a next event")
	}
	e.At(5, func() {})
	e.At(3, func() {})
	if at, ok := e.NextEventTime(); !ok || at != 3 {
		t.Fatalf("NextEventTime = %v,%v, want 3,true", at, ok)
	}
	e.Run()
	if _, ok := e.NextEventTime(); ok {
		t.Fatal("drained env reports a next event")
	}
}

// TestDoPastPanics: the typed DoCall path enforces the same
// no-past-scheduling contract as At.
func TestDoPastPanics(t *testing.T) {
	e := NewEnv()
	e.At(10, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("DoCall in the past accepted")
		}
	}()
	e.DoCall(5, func(any, uint64) {}, nil, 0)
}

// TestDoAfterNegativePanics mirrors After's contract on DoCallAfter.
func TestDoAfterNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative DoCallAfter accepted")
		}
	}()
	NewEnv().DoCallAfter(-1, func(any, uint64) {}, nil, 0)
}

// BenchmarkEnvEventChurn measures the engine's core push/pop cycle with a
// standing population of pending timers — the DES hot loop.
func BenchmarkEnvEventChurn(b *testing.B) {
	e := NewEnv()
	fn := func() {}
	for i := 0; i < 1024; i++ {
		e.After(Time(i), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(1024, fn)
		e.Step()
	}
}

// BenchmarkEnvDoCallChurn is the typed-callback twin of EnvEventChurn —
// the path cluster hot loops use after the closure-interning work.
func BenchmarkEnvDoCallChurn(b *testing.B) {
	e := NewEnv()
	type target struct{ hits uint64 }
	tgt := &target{}
	cb := func(ctx any, arg uint64) { ctx.(*target).hits++ }
	for i := 0; i < 1024; i++ {
		e.DoCallAfter(Time(i), cb, tgt, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.DoCallAfter(1024, cb, tgt, 0)
		e.Step()
	}
}

// BenchmarkEnvMixedHorizon churns about 50 pending events whose delays
// follow the dnn-fleet workload's measured mix (seed 1, two simulated
// seconds): 38% zero, 36% between 256 ns and 4 µs, and 26% between 4 µs
// and 1 ms, drawn log-uniformly within each band from a fixed-seed table.
// On that workload the queue re-buckets each record 1.73 times on average
// before it pops.
func BenchmarkEnvMixedHorizon(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	logUniform := func(lo, hi Time) Time {
		return Time(float64(lo) * math.Pow(float64(hi)/float64(lo), rng.Float64()))
	}
	delays := make([]Time, 1024)
	for i := range delays {
		switch p := rng.Intn(100); {
		case p < 38:
		case p < 74:
			delays[i] = logUniform(256, 4*Microsecond)
		default:
			delays[i] = logUniform(4*Microsecond, Millisecond)
		}
	}
	e := NewEnv()
	fn := func() {}
	for i := 0; i < 50; i++ {
		e.After(delays[i], fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(delays[i&1023], fn)
		e.Step()
	}
}
