package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// qrig wires an eventQueue to its backing arena the way NewEnv does,
// letting the queue be exercised in isolation.
type qrig struct {
	a arena
	q eventQueue
}

func newQrig() *qrig {
	r := &qrig{}
	r.a.freeHead = -1
	r.q.a = &r.a
	r.q.lastB = -1
	return r
}

// qitem mirrors one pushed record in the model's own storage, so model
// entries stay readable even after a popped record is recycled.
type qitem struct {
	idx int32
	at  Time
	seq uint64
}

func (r *qrig) push(at Time, seq uint64) qitem {
	i := r.a.alloc()
	rec := &r.a.recs[i]
	rec.at, rec.seq = at, seq
	r.q.push(i, at, seq)
	return qitem{idx: i, at: at, seq: seq}
}

// queuePushPattern drives an eventQueue the way an Env does — strictly
// increasing seq, with bursts of repeated timestamps to exercise the
// open-run append path as well as fresh buckets.
func queuePushPattern(rng *rand.Rand, r *qrig, seq *uint64, n int) []qitem {
	var out []qitem
	at := Time(rng.Intn(50))
	for i := 0; i < n; i++ {
		if rng.Intn(3) == 0 { // start a new run two-thirds of the time not
			at = Time(rng.Intn(50))
		}
		out = append(out, r.push(at, *seq))
		*seq++
	}
	return out
}

// TestQueuePopOrderMatchesSort: the bucketed queue pops timers in exact
// (at, seq) order for randomized inputs — the total order every simulation
// outcome rests on.
func TestQueuePopOrderMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		r := newQrig()
		seq := uint64(0)
		ref := queuePushPattern(rng, r, &seq, 1+rng.Intn(200))
		sort.Slice(ref, func(a, b int) bool {
			if ref[a].at != ref[b].at {
				return ref[a].at < ref[b].at
			}
			return ref[a].seq < ref[b].seq
		})
		for i, want := range ref {
			got := r.q.pop()
			if got != want.idx {
				rec := &r.a.recs[got]
				t.Fatalf("trial %d: pop %d = (at=%d seq=%d), want (at=%d seq=%d)",
					trial, i, rec.at, rec.seq, want.at, want.seq)
			}
		}
		if r.q.len() != 0 {
			t.Fatalf("queue not drained: %d left", r.q.len())
		}
	}
}

// TestQueueAgainstModel cross-checks the bucketed queue against a sorted
// reference under a randomized push/pop/pop-and-free workload. Records
// freed by a pop-and-free are recycled into later pushes, so the workload
// also exercises arena index reuse under live traffic.
func TestQueueAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	r := newQrig()
	seq := uint64(0)
	var live []qitem
	popMin := func() qitem {
		best := -1
		for i, x := range live {
			if best < 0 || x.at < live[best].at || (x.at == live[best].at && x.seq < live[best].seq) {
				best = i
			}
		}
		x := live[best]
		live = append(live[:best], live[best+1:]...)
		return x
	}
	for op := 0; op < 5000; op++ {
		switch r2 := rng.Intn(10); {
		case r2 < 5: // push a small same-timestamp run
			live = append(live, queuePushPattern(rng, r, &seq, 1+rng.Intn(4))...)
		default: // pop min; two pops in three also free the record
			if r.q.len() == 0 {
				continue
			}
			want := popMin()
			got := r.q.pop()
			if got != want.idx {
				rec := &r.a.recs[got]
				t.Fatalf("op %d: pop (at=%d seq=%d), want (at=%d seq=%d)",
					op, rec.at, rec.seq, want.at, want.seq)
			}
			if r2 >= 8 {
				r.a.free(got)
			}
		}
		if r.q.len() != len(live) {
			t.Fatalf("op %d: queue len %d, model %d", op, r.q.len(), len(live))
		}
	}
	for r.q.len() > 0 {
		want := popMin()
		got := r.q.pop()
		if got != want.idx {
			rec := &r.a.recs[got]
			t.Fatalf("drain: pop (at=%d seq=%d), want (at=%d seq=%d)",
				rec.at, rec.seq, want.at, want.seq)
		}
	}
	if len(live) != 0 {
		t.Fatalf("model not drained: %d left", len(live))
	}
}

// TestQueueInvariants: after every operation, each heap slot's inline key
// matches its bucket's front, no bucket sits in two slots, bucket seqs are
// strictly increasing, the open-run index lastB is -1 or names a bucket in
// the heap, and the size counter equals the number of resident records —
// the invariants push and Step rest on.
func TestQueueInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	r := newQrig()
	seq := uint64(0)
	check := func(op int) {
		total := 0
		inHeap := make(map[int32]bool)
		for i, ent := range r.q.h {
			if inHeap[ent.bi] {
				t.Fatalf("op %d: bucket %d sits in two heap slots", op, ent.bi)
			}
			inHeap[ent.bi] = true
			b := &r.q.buckets[ent.bi]
			if int(b.first) >= len(b.tms) {
				t.Fatalf("op %d: slot %d holds drained bucket", op, i)
			}
			fr := &r.a.recs[b.tms[b.first]]
			if ent.at != b.at || ent.at != fr.at || ent.seq != fr.seq {
				t.Fatalf("op %d: slot %d key (%d,%d) diverges from front (%d,%d)",
					op, i, ent.at, ent.seq, fr.at, fr.seq)
			}
			prev := uint64(0)
			for j := int(b.first); j < len(b.tms); j++ {
				rec := &r.a.recs[b.tms[j]]
				if rec.at != b.at {
					t.Fatalf("op %d: bucket at=%d holds record at=%d", op, b.at, rec.at)
				}
				if j > int(b.first) && rec.seq <= prev {
					t.Fatalf("op %d: bucket seqs not increasing", op)
				}
				prev = rec.seq
				total++
			}
		}
		if lb := r.q.lastB; lb != -1 && !inHeap[lb] {
			t.Fatalf("op %d: lastB %d names a bucket outside the heap", op, lb)
		}
		if total != r.q.size {
			t.Fatalf("op %d: size %d, counted %d resident", op, r.q.size, total)
		}
	}
	for op := 0; op < 2000; op++ {
		switch {
		case rng.Intn(3) > 0 || r.q.len() == 0:
			queuePushPattern(rng, r, &seq, 1+rng.Intn(4))
		case rng.Intn(2) == 0:
			r.q.pop()
		default: // pop and free: the index returns to the arena for reuse
			r.a.free(r.q.pop())
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
