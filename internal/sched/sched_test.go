package sched

import (
	"math"
	"math/rand"
	"testing"

	"paella/internal/sim"
)

func job(id uint64, client int, arrival, total, remaining sim.Time) *JobEntry {
	return &JobEntry{ID: id, Client: client, Arrival: arrival, Total: total, Remaining: remaining}
}

func TestFIFOPicksOldest(t *testing.T) {
	p := NewFIFO()
	a := job(1, 0, 30, 10, 10)
	b := job(2, 0, 10, 99, 99)
	c := job(3, 0, 20, 1, 1)
	for _, j := range []*JobEntry{a, b, c} {
		p.Add(j)
	}
	if got := p.Pick(); got != b {
		t.Fatalf("Pick = job %d, want 2", got.ID)
	}
	p.Remove(b)
	if got := p.Pick(); got != c {
		t.Fatalf("Pick = job %d, want 3", got.ID)
	}
	if p.Len() != 2 {
		t.Fatalf("Len = %d", p.Len())
	}
}

func TestSJFPicksShortestTotal(t *testing.T) {
	p := NewSJF()
	long := job(1, 0, 0, 100, 100)
	short := job(2, 0, 50, 10, 10)
	p.Add(long)
	p.Add(short)
	if got := p.Pick(); got != short {
		t.Fatalf("Pick = job %d, want short", got.ID)
	}
}

func TestSRPTPicksShortestRemaining(t *testing.T) {
	p := NewSRPT()
	// A long job that is nearly finished beats a short fresh job.
	nearlyDone := job(1, 0, 0, 100, 5)
	fresh := job(2, 0, 0, 10, 10)
	p.Add(nearlyDone)
	p.Add(fresh)
	if got := p.Pick(); got != nearlyDone {
		t.Fatalf("Pick = job %d, want nearly-done", got.ID)
	}
}

func TestDoubleAddPanics(t *testing.T) {
	for _, p := range []Policy{NewFIFO(), NewSJF(), NewSRPT(), NewRR(), NewPaella(100)} {
		j := job(1, 0, 0, 10, 10)
		if pp, ok := p.(*PaellaPolicy); ok {
			pp.JobAdmitted(0)
		}
		p.Add(j)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: double Add did not panic", p.Name())
				}
			}()
			p.Add(j)
		}()
	}
}

func TestRemoveNotPresentPanics(t *testing.T) {
	for _, p := range []Policy{NewFIFO(), NewRR(), NewPaella(100)} {
		j := job(1, 0, 0, 10, 10)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Remove of absent job did not panic", p.Name())
				}
			}()
			p.Remove(j)
		}()
	}
}

func TestRRCyclesClients(t *testing.T) {
	p := NewRR()
	// Client 0 has three jobs, client 1 has one, client 2 has two.
	jobs := []*JobEntry{
		job(1, 0, 1, 10, 10), job(2, 0, 2, 10, 10), job(3, 0, 3, 10, 10),
		job(4, 1, 1, 10, 10),
		job(5, 2, 1, 10, 10), job(6, 2, 2, 10, 10),
	}
	for _, j := range jobs {
		p.Add(j)
	}
	var order []uint64
	for p.Len() > 0 {
		j := p.Pick()
		order = append(order, j.ID)
		p.Dispatched(j)
		p.Remove(j)
	}
	want := []uint64{1, 4, 5, 2, 6, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("RR order = %v, want %v", order, want)
		}
	}
}

func TestRREmptyPick(t *testing.T) {
	p := NewRR()
	if p.Pick() != nil {
		t.Fatal("Pick on empty RR returned a job")
	}
	j := job(1, 0, 0, 10, 10)
	p.Add(j)
	p.Remove(j)
	if p.Pick() != nil || p.Len() != 0 {
		t.Fatal("RR not empty after add/remove")
	}
}

func TestPaellaSRPTWhenUnderThreshold(t *testing.T) {
	p := NewPaella(1000)
	p.JobAdmitted(0)
	p.JobAdmitted(1)
	a := job(1, 0, 0, 100, 100)
	b := job(2, 1, 0, 10, 10)
	p.Add(a)
	p.Add(b)
	if got := p.Pick(); got != b {
		t.Fatalf("Pick = job %d, want SRPT minimum", got.ID)
	}
}

// TestPaellaFairnessOverride starves a client and checks that the deficit
// mechanism eventually forces its oldest job to run.
func TestPaellaFairnessOverride(t *testing.T) {
	const threshold = 5.0
	p := NewPaella(threshold)
	p.JobAdmitted(0) // short-job client, repeatedly served
	p.JobAdmitted(1) // long-job client, starved by SRPT
	long := job(999, 1, 0, 1e9, 1e9)
	p.Add(long)
	picked := -1
	for i := 0; i < 100; i++ {
		short := job(uint64(i), 0, sim.Time(i), 10, 10)
		p.Add(short)
		got := p.Pick()
		p.Dispatched(got)
		p.Remove(got)
		if got == long {
			picked = i
			break
		}
	}
	if picked < 0 {
		t.Fatal("starved client never served")
	}
	// Client 1 gains 1/2 deficit per dispatch of client 0; it crosses
	// threshold 5 after ~10 dispatches.
	if picked < 8 || picked > 14 {
		t.Fatalf("fairness override at dispatch %d, want ≈10", picked)
	}
}

func TestPaellaThresholdControlsOverridePoint(t *testing.T) {
	overrideAt := func(threshold float64) int {
		p := NewPaella(threshold)
		p.JobAdmitted(0)
		p.JobAdmitted(1)
		long := job(999, 1, 0, 1e9, 1e9)
		p.Add(long)
		for i := 0; i < 10000; i++ {
			short := job(uint64(i), 0, sim.Time(i), 10, 10)
			p.Add(short)
			got := p.Pick()
			p.Dispatched(got)
			p.Remove(got)
			if got == long {
				return i
			}
		}
		return math.MaxInt32
	}
	lo, mid, hi := overrideAt(1), overrideAt(10), overrideAt(100)
	if !(lo < mid && mid < hi) {
		t.Fatalf("override points not ordered: %d, %d, %d", lo, mid, hi)
	}
}

func TestPaellaClientLifecycle(t *testing.T) {
	p := NewPaella(10)
	p.JobAdmitted(7)
	p.JobAdmitted(7)
	if len(p.clients) != 1 {
		t.Fatalf("active clients = %d", len(p.clients))
	}
	p.JobFinished(7)
	if len(p.clients) != 1 {
		t.Fatal("client dropped while jobs remain")
	}
	p.JobFinished(7)
	if len(p.clients) != 0 {
		t.Fatal("client not dropped after last job")
	}
	defer func() {
		if recover() == nil {
			t.Error("unmatched JobFinished did not panic")
		}
	}()
	p.JobFinished(7)
}

// naiveDeficit mirrors the paper's conceptual O(n) update for the
// equivalence test.
type naiveDeficit struct {
	deficit map[int]float64
}

func (n *naiveDeficit) dispatched(client int, active []int) {
	share := 1 / float64(len(active))
	for _, c := range active {
		if c == client {
			n.deficit[c] -= 1 - share
		} else {
			n.deficit[c] += share
		}
	}
}

// TestDeficitShiftEquivalence drives the O(1) shifted implementation and
// the naive O(n) update with the same random dispatch sequence and checks
// the effective deficits agree.
func TestDeficitShiftEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const clients = 5
	p := NewPaella(1e18) // never override; we only test accounting
	naive := &naiveDeficit{deficit: map[int]float64{}}
	active := make([]int, clients)
	jobs := make([]*JobEntry, clients)
	for c := 0; c < clients; c++ {
		active[c] = c
		p.JobAdmitted(c)
		jobs[c] = job(uint64(c), c, 0, 10, 10)
		p.Add(jobs[c])
	}
	for step := 0; step < 10000; step++ {
		c := rng.Intn(clients)
		p.Dispatched(jobs[c])
		naive.dispatched(c, active)
	}
	for c := 0; c < clients; c++ {
		got := p.EffectiveDeficit(c)
		want := naive.deficit[c]
		if math.Abs(got-want) > 1e-6*math.Max(1, math.Abs(want)) {
			t.Fatalf("client %d: effective deficit %f, want %f", c, got, want)
		}
	}
}

func TestPaellaRenormalization(t *testing.T) {
	p := NewPaella(1e18)
	p.JobAdmitted(0)
	p.JobAdmitted(1)
	j0 := job(0, 0, 0, 10, 10)
	p.Add(j0)
	// Force the boost over the renormalization limit.
	for i := 0; i < 100; i++ {
		p.Dispatched(j0)
	}
	gapBefore := p.EffectiveDeficit(1) - p.EffectiveDeficit(0)
	// Push the boost over the renormalization limit; the next dispatch
	// triggers the O(n) reset. A uniform shift applied during the reset
	// must not change relative deficits (beyond the dispatch's own effect
	// of widening the gap by exactly 1).
	p.boost = 2e9
	p.Dispatched(j0)
	if p.boost != 0 {
		t.Fatalf("boost not reset: %f", p.boost)
	}
	gapAfter := p.EffectiveDeficit(1) - p.EffectiveDeficit(0)
	if math.Abs(gapAfter-gapBefore-1) > 1e-6 {
		t.Fatalf("renormalization changed relative deficits: gap %f → %f", gapBefore, gapAfter)
	}
}

func TestPaellaPickSkipsJoblessDeficitClients(t *testing.T) {
	p := NewPaella(0.1)
	p.JobAdmitted(0)
	p.JobAdmitted(1)
	// Client 1 accrues deficit but has no runnable job right now.
	j := job(1, 0, 0, 10, 10)
	p.Add(j)
	for i := 0; i < 10; i++ {
		p.Dispatched(j)
	}
	if p.EffectiveDeficit(1) <= 0.1 {
		t.Fatal("client 1 should be over threshold")
	}
	if got := p.Pick(); got != j {
		t.Fatal("Pick must fall back past deficit clients without runnable jobs")
	}
}

func TestPolicyNames(t *testing.T) {
	names := map[string]Policy{
		"FIFO":   NewFIFO(),
		"SJF":    NewSJF(),
		"SRPT":   NewSRPT(),
		"RR":     NewRR(),
		"Paella": NewPaella(10),
	}
	for want, p := range names {
		if p.Name() != want {
			t.Errorf("Name = %q, want %q", p.Name(), want)
		}
	}
}

func BenchmarkPaellaPickDispatch(b *testing.B) {
	p := NewPaella(100)
	const jobs = 1024
	entries := make([]*JobEntry, jobs)
	for i := 0; i < jobs; i++ {
		client := i % 16
		p.JobAdmitted(client)
		entries[i] = job(uint64(i), client, sim.Time(i), sim.Time(i%100), sim.Time(i%100))
		p.Add(entries[i])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := p.Pick()
		p.Dispatched(j)
		p.Remove(j)
		j.Remaining = sim.Time((int(j.Remaining) + 17) % 1000)
		p.Add(j)
	}
}

// TestRemainingLessWarmFirst pins the SRPT order's tie-break: of two
// entries with equal Remaining, the warm one (its model resident) sorts
// first, whichever was added first, in remainingLess itself and in the two
// policies ordered by it. Remaining still decides before warmth.
func TestRemainingLessWarmFirst(t *testing.T) {
	pair := func() (warm, cold *JobEntry) {
		warm = job(1, 0, 10, 50, 20)
		warm.Warm = true
		return warm, job(2, 1, 10, 50, 20)
	}
	warm, cold := pair()
	if !remainingLess(warm, cold) || remainingLess(cold, warm) {
		t.Fatal("equal Remaining: the warm entry does not sort before the cold one")
	}
	if remainingLess(warm, warm) || remainingLess(cold, cold) {
		t.Fatal("remainingLess is not strict")
	}
	if shorter := job(3, 0, 10, 50, 19); !remainingLess(shorter, warm) {
		t.Fatal("a cold entry with less Remaining does not sort first")
	}
	for _, p := range []Policy{NewSRPT(), NewPaella(1e9)} {
		warm, cold := pair()
		p.JobAdmitted(0)
		p.JobAdmitted(1)
		p.Add(cold)
		p.Add(warm)
		if got := p.Pick(); got != warm {
			t.Errorf("%s picks job %d, want the warm job 1", p.Name(), got.ID)
		}
	}
}
