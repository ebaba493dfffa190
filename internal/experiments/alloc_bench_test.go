package experiments

import "testing"

// BenchmarkEngineHotLoop drives b.N events through a warmed-up cluster —
// the end-to-end hot loop of the scale benchmark, one Env.Step per op. With
// -benchmem this is the allocation-free-hot-loop acceptance check: after
// warm-up (pools and arenas at their high-water marks) the loop must report
// 0 allocs/op. The only remaining allocations are per-job admission
// records, amortized over the thousands of events each job generates, so
// the per-event figure truncates to zero.
func BenchmarkEngineHotLoop(b *testing.B) {
	// Size the trace so the measured phase cannot drain the event queue:
	// one job yields ~1.3k engine events and the measured phase gets the
	// last three quarters of the jobs, so b.N/500 leaves a 2× margin.
	jobs := b.N/500 + 400
	r, err := newScaleRun("legacy", 1, jobs)
	if err != nil {
		b.Fatal(err)
	}
	env := r.Env()
	r.RunUntil(r.reqs[len(r.reqs)/4].At) // warm-up: pools reach steady state
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !env.Step() {
			b.Fatalf("event queue drained after %d of %d steps; trace undersized", i, b.N)
		}
	}
}
