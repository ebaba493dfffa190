package llm

import (
	"testing"

	"paella/internal/gpu"
	"paella/internal/metrics"
	"paella/internal/sim"
)

// testConfig is a tiny fast model: 4 tokens per KV page, microsecond-scale
// kernels, zero weight bytes so the whole (small) VRAM budget is KV pool.
func testConfig(kvPages int, continuous bool) Config {
	return Config{
		Spec: Spec{
			Name:                  "tiny",
			KVBytesPerToken:       1 << 10,
			PrefillTokensPerBlock: 4,
			PrefillThreads:        128,
			PrefillBlockTime:      20 * sim.Microsecond,
			ProfilePromptTokens:   16,
			DecodeBlocks:          2,
			DecodeThreads:         128,
			DecodeBlockTime:       10 * sim.Microsecond,
		},
		DevCfg:       gpu.TeslaT4(),
		VRAMBytes:    int64(kvPages) * (4 << 10),
		KVBlockBytes: 4 << 10,
		MaxBatch:     4,
		Continuous:   continuous,
	}
}

// compileSpec is CompileSpec for configurations the test knows are valid.
func compileSpec(t testing.TB, cfg Config) *Compiled {
	t.Helper()
	comp, err := CompileSpec(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return comp
}

// newEngine is NewEngine for configurations the test knows are valid.
func newEngine(t testing.TB, env *sim.Env, comp *Compiled, col *metrics.Collector) *Engine {
	t.Helper()
	e, err := NewEngine(env, comp, col)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func runEngine(t *testing.T, cfg Config, reqs []Request) (*Engine, *metrics.Collector) {
	t.Helper()
	env := sim.NewEnv()
	col := metrics.NewCollector()
	eng := newEngine(t, env, compileSpec(t, cfg), col)
	for _, r := range reqs {
		r := r
		env.At(r.Submit, func() { eng.Admit(r) })
	}
	env.Run()
	eng.Mem().CheckInvariants()
	return eng, col
}

func TestEngineSingleRequest(t *testing.T) {
	eng, col := runEngine(t, testConfig(64, true), []Request{
		{ID: 1, Client: 0, Submit: 0, Prompt: 6, Output: 3},
	})
	recs := col.Records()
	if len(recs) != 1 {
		t.Fatalf("%d records, want 1", len(recs))
	}
	r := recs[0]
	if r.Failed || r.OutputTokens != 3 || r.PromptTokens != 6 {
		t.Fatalf("bad record: %+v", r)
	}
	if r.FirstToken == 0 || r.FirstToken >= r.ExecDone {
		t.Fatalf("FirstToken %v not inside (0, ExecDone=%v)", r.FirstToken, r.ExecDone)
	}
	// TTFT covers prefill; TPOT covers the per-token decode cadence.
	if r.TTFT() <= 0 || r.TPOT() <= 0 {
		t.Fatalf("TTFT=%v TPOT=%v, want both positive", r.TTFT(), r.TPOT())
	}
	if eng.Mem().KVBlocks() != 0 {
		t.Fatalf("%d KV pages leaked after retirement", eng.Mem().KVBlocks())
	}
	if eng.inflight != 0 {
		t.Fatalf("InFlight = %d after drain", eng.inflight)
	}
	if got := eng.Iterations(); got != 3 {
		t.Fatalf("%d decode iterations for 3 output tokens, want 3", got)
	}
}

// TestContinuousJoinsAtIterationBoundary: a request arriving mid-decode of
// another joins the running batch at the next iteration boundary instead of
// waiting for a drain — the defining behaviour of continuous batching.
func TestContinuousJoinsAtIterationBoundary(t *testing.T) {
	_, col := runEngine(t, testConfig(64, true), []Request{
		{ID: 1, Client: 0, Submit: 0, Prompt: 8, Output: 32},
		{ID: 2, Client: 1, Submit: 100 * sim.Microsecond, Prompt: 8, Output: 8},
	})
	recs := byID(t, col, 2)
	for id, r := range recs {
		if r.Failed {
			t.Fatalf("request %d failed", id)
		}
		if r.BatchSize < 2 {
			t.Errorf("request %d rode max batch %d, want ≥2 (joined mid-flight)", id, r.BatchSize)
		}
	}
	// The latecomer must finish before the long request: it joined without
	// waiting for the drain.
	if !(recs[2].ExecDone < recs[1].ExecDone) {
		t.Fatalf("latecomer finished at %v, after the long request's %v",
			recs[2].ExecDone, recs[1].ExecDone)
	}
}

// TestStaticBatchingWaitsForDrain: under launch-time batching the same
// latecomer is locked out until the in-flight batch fully drains.
func TestStaticBatchingWaitsForDrain(t *testing.T) {
	_, col := runEngine(t, testConfig(64, false), []Request{
		{ID: 1, Client: 0, Submit: 0, Prompt: 8, Output: 32},
		{ID: 2, Client: 1, Submit: 100 * sim.Microsecond, Prompt: 8, Output: 8},
	})
	recs := byID(t, col, 2)
	if recs[2].FirstToken <= recs[1].ExecDone {
		t.Fatalf("latecomer's first token at %v, before the batch drained at %v",
			recs[2].FirstToken, recs[1].ExecDone)
	}
	if recs[2].BatchSize != 1 {
		t.Fatalf("latecomer rode batch %d under static batching, want 1", recs[2].BatchSize)
	}
}

// TestKVPreemption: two sequences whose combined KV demand exceeds the pool
// force preemption-by-recompute; both still finish, and all pages drain.
func TestKVPreemption(t *testing.T) {
	eng, col := runEngine(t, testConfig(6, true), []Request{
		{ID: 1, Client: 0, Submit: 0, Prompt: 8, Output: 8},
		{ID: 2, Client: 1, Submit: 0, Prompt: 8, Output: 8},
	})
	recs := byID(t, col, 2)
	for id, r := range recs {
		if r.Failed {
			t.Fatalf("request %d failed under KV pressure", id)
		}
		if r.OutputTokens != 8 {
			t.Fatalf("request %d produced %d tokens, want 8", id, r.OutputTokens)
		}
	}
	if eng.Preemptions() == 0 {
		t.Fatal("no preemptions despite 8-page demand in a 6-page pool")
	}
	if recs[1].Preemptions+recs[2].Preemptions != eng.Preemptions() {
		t.Fatalf("per-record preemptions %d+%d != engine total %d",
			recs[1].Preemptions, recs[2].Preemptions, eng.Preemptions())
	}
	if eng.Mem().KVBlocks() != 0 {
		t.Fatalf("%d KV pages leaked", eng.Mem().KVBlocks())
	}
}

// TestKVExhaustedTerminal: a sequence whose demand can never fit fails with
// a typed terminal record instead of deadlocking the engine.
func TestKVExhaustedTerminal(t *testing.T) {
	eng, col := runEngine(t, testConfig(2, true), []Request{
		{ID: 1, Client: 0, Submit: 0, Prompt: 12, Output: 4},
	})
	recs := col.Records()
	if len(recs) != 1 || !recs[0].Failed {
		t.Fatalf("impossible request did not fail terminally: %+v", recs)
	}
	if eng.Mem().KVBlocks() != 0 || eng.inflight != 0 {
		t.Fatal("failed request left KV pages or inflight state behind")
	}
}

// TestPrefillHandoff: a prefill-only engine hands the sequence off (freeing
// its local pages); a decode engine finishes it from the transferred KV.
func TestPrefillHandoff(t *testing.T) {
	env := sim.NewEnv()
	col := metrics.NewCollector()
	comp := compileSpec(t, testConfig(64, true))
	pre := newEngine(t, env, comp, col)
	dec := newEngine(t, env, comp, col)
	pre.HandoffPrefill = func(h Handoff) { dec.AdmitDecoded(h) }
	env.At(0, func() { pre.Admit(Request{ID: 1, Client: 0, Prompt: 8, Output: 4}) })
	env.Run()
	recs := col.Records()
	if len(recs) != 1 || recs[0].Failed || recs[0].OutputTokens != 4 {
		t.Fatalf("handoff did not complete: %+v", recs)
	}
	if pre.Mem().KVBlocks() != 0 {
		t.Fatalf("prefill engine kept %d KV pages after handoff", pre.Mem().KVBlocks())
	}
	if pre.inflight != 0 || dec.inflight != 0 {
		t.Fatalf("inflight %d/%d after drain, want 0/0", pre.inflight, dec.inflight)
	}
	if dec.Iterations() != 4 {
		t.Fatalf("%d decode iterations on the decode engine, want 4", dec.Iterations())
	}
}

func byID(t *testing.T, col *metrics.Collector, want int) map[uint64]metrics.JobRecord {
	t.Helper()
	recs := col.Records()
	if len(recs) != want {
		t.Fatalf("%d records, want %d", len(recs), want)
	}
	out := make(map[uint64]metrics.JobRecord, len(recs))
	for _, r := range recs {
		out[r.ID] = r
	}
	return out
}
