package serving

import (
	"testing"

	"paella/internal/gpu"
	"paella/internal/llm"
	"paella/internal/sim"
	"paella/internal/vram"
	"paella/internal/workload"
)

// llmTestOptions returns a fast tiny-model setup for the generative
// systems: zero weight bytes, 4 tokens per 4 KiB KV page, short prompts.
func llmTestOptions() Options {
	opts := DefaultOptions()
	opts.LLM = &LLMOptions{
		Spec: llm.Spec{
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
		Tokens: workload.TokenSpec{
			PromptMean: 12, PromptSigma: 0.4,
			OutputMean: 6, OutputSigma: 0.4,
			MaxPrompt: 32, MaxOutput: 16, Seed: 9,
		},
	}
	opts.MaxBatch = 4
	opts.VRAM = &vram.Config{CapacityBytes: 1 << 20, BlockBytes: 4 << 10}
	return opts
}

func llmTrace(n int) []workload.Request {
	reqs := make([]workload.Request, n)
	at := sim.Time(0)
	for i := range reqs {
		at += 40 * sim.Microsecond
		reqs[i] = workload.Request{At: at, Model: "llm", Client: i % 3}
	}
	return reqs
}

func TestLLMSystemsRunTrace(t *testing.T) {
	for _, name := range []string{"Paella-LLM", "Paella-LLM-static", "Paella-LLM-PD"} {
		t.Run(name, func(t *testing.T) {
			col := MustRunTrace(MustNewSystem(name), llmTrace(30), llmTestOptions())
			recs := col.Records()
			if len(recs) != 30 {
				t.Fatalf("%d records, want 30", len(recs))
			}
			ttfts := col.TTFTs()
			if len(ttfts) != 30 {
				t.Fatalf("%d TTFT samples, want 30", len(ttfts))
			}
			for _, r := range recs {
				if r.Failed || r.OutputTokens == 0 || r.FirstToken == 0 {
					t.Fatalf("%s produced bad record %+v", name, r)
				}
			}
			if col.TokensPerSec() <= 0 {
				t.Fatalf("%s reports no token throughput", name)
			}
		})
	}
}

// TestLLMTokenSamplingDeterministic: two runs of the same system over the
// same trace produce identical records — the sampler draws in submission
// order from a fixed seed.
func TestLLMTokenSamplingDeterministic(t *testing.T) {
	run := func() []int {
		col := MustRunTrace(MustNewSystem("Paella-LLM"), llmTrace(20), llmTestOptions())
		var outs []int
		for _, r := range col.Records() {
			outs = append(outs, r.PromptTokens, r.OutputTokens)
		}
		return outs
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("record counts diverge across identical runs")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("token lengths diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestLLMPDTransfersKV: the disaggregated system stamps a KV-transfer cost
// on every record; the colocated one stamps none.
func TestLLMPDTransfersKV(t *testing.T) {
	opts := llmTestOptions()
	pdCol := MustRunTrace(MustNewSystem("Paella-LLM-PD"), llmTrace(10), opts)
	for _, r := range pdCol.Records() {
		if r.KVTransferNs <= 0 {
			t.Fatalf("PD record without KV transfer: %+v", r)
		}
	}
	coCol := MustRunTrace(MustNewSystem("Paella-LLM"), llmTrace(10), opts)
	for _, r := range coCol.Records() {
		if r.KVTransferNs != 0 {
			t.Fatalf("colocated record with KV transfer: %+v", r)
		}
	}
}

// TestLLMDefaultsResolve: the zero LLMOptions path (default spec on the
// T4, default token lengths) sets up without error.
func TestLLMDefaultsResolve(t *testing.T) {
	sys := MustNewSystem("Paella-LLM")
	env := sim.NewEnv()
	opts := DefaultOptions()
	opts.DevCfg = gpu.TeslaT4()
	if err := sys.Setup(env, opts, 2); err != nil {
		t.Fatal(err)
	}
}

// TestLLMSystemsKeepTenant: a two-tenant trace served through RunTrace
// yields records carrying both tenants, each on the request it arrived
// with.
func TestLLMSystemsKeepTenant(t *testing.T) {
	trace := llmTrace(30)
	for i := range trace {
		trace[i].Tenant = []string{"gold", "bronze"}[i%2]
	}
	col := MustRunTrace(MustNewSystem("Paella-LLM"), trace, llmTestOptions())
	if got := col.Tenants(); len(got) != 2 {
		t.Fatalf("records carry tenants %q, want gold and bronze", got)
	}
	for _, rec := range col.Records() {
		if want := trace[rec.ID-1].Tenant; rec.Tenant != want {
			t.Fatalf("request %d recorded tenant %q, arrived as %q", rec.ID, rec.Tenant, want)
		}
	}
}
