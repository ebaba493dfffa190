package llm

import (
	"testing"

	"paella/internal/metrics"
	"paella/internal/sim"
)

// steadyDecode returns a continuous engine whose MaxBatch sequences are
// all past prefill and decoding: outputs too long to retire and a KV pool
// too large to preempt, so every later iteration neither admits nor
// retires anything.
func steadyDecode(tb testing.TB) (*sim.Env, *Engine) {
	tb.Helper()
	cfg := testConfig(1<<40, true)
	env := sim.NewEnv()
	eng := newEngine(tb, env, compileSpec(tb, cfg), metrics.NewCollector())
	for i := 0; i < cfg.MaxBatch; i++ {
		eng.Admit(Request{ID: uint64(i + 1), Client: i, Prompt: 8, Output: 1 << 32})
	}
	for eng.Iterations() < 4*uint64(cfg.MaxBatch) {
		decodeIteration(env, eng)
	}
	if len(eng.prefillQ) != 0 || eng.prefilling != nil || len(eng.batch) != cfg.MaxBatch {
		tb.Fatalf("not in steady decode: %d queued for prefill, batch of %d", len(eng.prefillQ), len(eng.batch))
	}
	return env, eng
}

// decodeIteration steps the Env until the engine launches its next
// decode iteration.
func decodeIteration(env *sim.Env, eng *Engine) {
	for it := eng.Iterations(); eng.Iterations() == it; {
		env.Step()
	}
}

// TestDecodeIterationAllocFree: a steady-state decode iteration — batch
// formation, KV growth, the launch, its device events and the completion
// callback — allocates nothing: the engine recycles its one decode
// gpu.Launch and binds iterDone once.
func TestDecodeIterationAllocFree(t *testing.T) {
	env, eng := steadyDecode(t)
	if avg := testing.AllocsPerRun(200, func() { decodeIteration(env, eng) }); avg != 0 {
		t.Fatalf("steady decode iteration allocates %v times, want 0", avg)
	}
}

// BenchmarkDecodeIteration times one steady-state continuous decode
// iteration of a full batch, from launch to the next launch.
func BenchmarkDecodeIteration(b *testing.B) {
	env, eng := steadyDecode(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decodeIteration(env, eng)
	}
}
