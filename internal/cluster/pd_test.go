package cluster_test

import (
	"bytes"
	"crypto/sha256"
	"math/rand"
	"testing"

	"paella/internal/cluster"
	"paella/internal/gateway"
	"paella/internal/gpu"
	"paella/internal/llm"
	"paella/internal/metrics"
	"paella/internal/sim"
)

// llmTestConfig is the tiny fast generative model shared by the pd and
// identity tests: zero weight bytes (the whole pool is KV pages), 4 tokens
// per 4 KiB page, microsecond-scale kernels.
func llmTestConfig(kvPages int) llm.Config {
	return llm.Config{
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
		DevCfg:       gpu.TeslaT4(),
		VRAMBytes:    int64(kvPages) * (4 << 10),
		KVBlockBytes: 4 << 10,
		MaxBatch:     4,
		Continuous:   true,
	}
}

// submitPDLoad schedules n seeded open-loop requests on the front's control
// timeline and returns the last arrival time.
func submitPDLoad(env *sim.Env, pd *cluster.PD, seed int64, n int) sim.Time {
	rng := rand.New(rand.NewSource(seed))
	at := sim.Time(0)
	for i := 0; i < n; i++ {
		at += sim.Time(rng.Intn(80)+10) * sim.Microsecond
		req := llm.Request{
			ID:     uint64(i + 1),
			Client: i % 4,
			Submit: at,
			Prompt: rng.Intn(24) + 4,
			Output: rng.Intn(12) + 2,
		}
		env.At(at, func() { pd.Submit(req) })
	}
	return at
}

func TestPDColocatedRoutesAndCompletes(t *testing.T) {
	env := sim.NewEnv()
	pd, err := cluster.NewPD(env, cluster.PDConfig{LLM: llmTestConfig(256), Prefills: 2})
	if err != nil {
		t.Fatal(err)
	}
	finished := 0
	pd.OnFinish = func(metrics.JobRecord) { finished++ }
	last := submitPDLoad(env, pd, 42, 24)
	env.RunUntil(last + sim.Second)
	if finished != 24 || pd.InFlight() != 0 {
		t.Fatalf("finished %d of 24, %d still inflight", finished, pd.InFlight())
	}
	if n, b := pd.Transfers(); n != 0 || b != 0 {
		t.Fatalf("colocated deployment made %d KV transfers (%d bytes)", n, b)
	}
	// Least-outstanding routing must have spread the load across replicas.
	for i := 0; i < pd.Size(); i++ {
		if pd.Engine(i).Iterations() == 0 {
			t.Fatalf("replica %d never decoded; routing is not spreading load", i)
		}
	}
	for _, r := range pd.Collector().Records() {
		if r.Failed || r.OutputTokens == 0 || r.KVTransferNs != 0 {
			t.Fatalf("bad colocated record: %+v", r)
		}
	}
}

func TestPDSplitTransfersKV(t *testing.T) {
	env := sim.NewEnv()
	cfg := cluster.PDConfig{LLM: llmTestConfig(256), Prefills: 1, Decodes: 1}
	pd, err := cluster.NewPD(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	last := submitPDLoad(env, pd, 7, 16)
	env.RunUntil(last + sim.Second)
	recs := pd.Collector().Records()
	if len(recs) != 16 {
		t.Fatalf("%d records, want 16", len(recs))
	}
	var wantBytes int64
	for _, r := range recs {
		if r.Failed {
			t.Fatalf("request %d failed", r.ID)
		}
		if r.KVTransferNs <= 0 {
			t.Fatalf("request %d crossed without KV-transfer time: %+v", r.ID, r)
		}
		wantBytes += int64(r.PromptTokens) * cfg.LLM.Spec.KVBytesPerToken
	}
	n, b := pd.Transfers()
	if n != 16 || b != wantBytes {
		t.Fatalf("transfers = %d (%d B), want 16 (%d B)", n, b, wantBytes)
	}
	// The prefill replica must end with no KV pages (all handed off) and
	// the decode replica must have done all the decoding.
	if pd.Engine(0).Mem().KVBlocks() != 0 {
		t.Fatalf("prefill replica kept %d KV pages", pd.Engine(0).Mem().KVBlocks())
	}
	if pd.Engine(0).Iterations() != 0 || pd.Engine(1).Iterations() == 0 {
		t.Fatalf("iterations split %d/%d, want 0/>0",
			pd.Engine(0).Iterations(), pd.Engine(1).Iterations())
	}
}

// TestPDSplitUnderKVPressure: a small decode-side pool forces preemption
// in the disaggregated deployment; everything still completes and drains.
func TestPDSplitUnderKVPressure(t *testing.T) {
	env := sim.NewEnv()
	pd, err := cluster.NewPD(env, cluster.PDConfig{LLM: llmTestConfig(10), Prefills: 1, Decodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	last := submitPDLoad(env, pd, 3, 12)
	env.RunUntil(last + 2*sim.Second)
	recs := pd.Collector().Records()
	if len(recs) != 12 {
		t.Fatalf("%d records, want 12", len(recs))
	}
	for _, r := range recs {
		if r.Failed {
			t.Fatalf("request %d failed under KV pressure", r.ID)
		}
	}
	for i := 0; i < pd.Size(); i++ {
		pd.Engine(i).Mem().CheckInvariants()
		if pd.Engine(i).Mem().KVBlocks() != 0 {
			t.Fatalf("replica %d leaked KV pages", i)
		}
	}
}

// pdDigest runs 600 seeded requests through a PD front and returns the
// SHA-256 of its merged records plus the front's counters.
type pdDigest struct {
	sum                 [sha256.Size]byte
	transfers           int
	kvBytes             int64
	preemptions, length int
}

func runPDDigest(t *testing.T, seed int64, prefills, decodes int, mk func() gateway.Policy) pdDigest {
	t.Helper()
	env := sim.NewEnv()
	pd, err := cluster.NewPD(env, cluster.PDConfig{
		LLM: llmTestConfig(16), Prefills: prefills, Decodes: decodes, MakePolicy: mk,
	})
	if err != nil {
		t.Fatal(err)
	}
	last := submitPDLoad(env, pd, seed, 600)
	env.RunUntil(last + 2*sim.Second)
	col := pd.Collector()
	var buf bytes.Buffer
	if err := col.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	d := pdDigest{sum: sha256.Sum256(buf.Bytes()), preemptions: pd.Preemptions(), length: col.Len()}
	d.transfers, d.kvBytes = pd.Transfers()
	return d
}

// TestPDNilPolicyIsLeastLoaded: a PD front without MakePolicy routes
// exactly as one configured with gateway.NewLeastLoaded — same records,
// transfers, and preemptions — colocated and disaggregated.
func TestPDNilPolicyIsLeastLoaded(t *testing.T) {
	for _, dep := range []struct {
		name              string
		prefills, decodes int
	}{{"colocated-3", 3, 0}, {"split-3P2D", 3, 2}} {
		for seed := int64(1); seed <= 5; seed++ {
			def := runPDDigest(t, seed, dep.prefills, dep.decodes, nil)
			ll := runPDDigest(t, seed, dep.prefills, dep.decodes, gateway.NewLeastLoaded)
			if def != ll {
				t.Errorf("%s seed %d: nil policy %+v != least-loaded %+v", dep.name, seed, def, ll)
			}
			if def.length != 600 {
				t.Errorf("%s seed %d: %d records, want 600", dep.name, seed, def.length)
			}
		}
	}
}
