package experiments

import (
	"testing"

	"paella/internal/cluster"
	"paella/internal/compiler"
	"paella/internal/core"
	"paella/internal/gateway"
	"paella/internal/gpu"
	"paella/internal/sched"
	"paella/internal/sim"
)

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
	models, reqs := scaleWorkload(1, jobs)
	env := sim.NewEnv()
	c, err := cluster.New(env, []gpu.Config{gpu.TeslaT4()},
		func() sched.Policy { return sched.NewPaella(10000) }, gateway.NewLeastLoaded())
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range models {
		if err := c.RegisterModel(m, compiler.DefaultConfig(), 1); err != nil {
			b.Fatal(err)
		}
	}
	conn := c.Connect()
	for i, r := range reqs {
		id, mdl := uint64(i+1), r.Model
		env.At(r.At, func() {
			conn.Submit(core.Request{ID: id, Model: mdl, Submit: env.Now()})
		})
	}
	env.RunUntil(reqs[len(reqs)/4].At) // warm-up: pools reach steady state
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !env.Step() {
			b.Fatalf("event queue drained after %d of %d steps; trace undersized", i, b.N)
		}
	}
}
