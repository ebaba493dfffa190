package core_test

import (
	"fmt"
	"strings"
	"testing"

	"paella/internal/cluster"
	"paella/internal/compiler"
	"paella/internal/core"
	"paella/internal/gpu"
	"paella/internal/llm"
	"paella/internal/metrics"
	"paella/internal/model"
	"paella/internal/sched"
	"paella/internal/sim"
	"paella/internal/trace"
	"paella/internal/vram"
)

// TestCopyDurationsPinned pins the PCIe copy-cost model byte for byte at
// three call sites: the dispatcher's cold-load estimate (with and without a
// VRAM budget, healthy and browned out), one PD prefill→decode KV handoff,
// and the stream memcpys of one Paella-MS-jbj job.
func TestCopyDurationsPinned(t *testing.T) {
	var b strings.Builder
	for _, budget := range []*vram.Config{nil, {CapacityBytes: 1 << 30}} {
		for _, factor := range []float64{1, 0.37, 0.2} {
			cfg := core.DefaultConfig(sched.NewPaella(10000))
			cfg.VRAM = budget
			d := core.NewWithDevice(sim.NewEnv(), gpu.TeslaT4(), cfg)
			d.SetPCIeFactor(factor)
			for _, bytes := range []int64{0, 1, 4096, 1 << 20, 123456789} {
				fmt.Fprintf(&b, "cold vram=%t factor=%v bytes=%d: %d\n",
					budget != nil, factor, bytes, int64(d.ColdLoadDuration(bytes)))
			}
		}
	}
	fmt.Fprintf(&b, "pd kv handoff: %d\n", int64(pdHandoffNs(t)))
	for _, s := range jbjCopySpans(t) {
		fmt.Fprintf(&b, "jbj %v %v bytes=%v: %d\n", s.Name, s.Arg("dir"), s.Arg("bytes"), int64(s.End-s.Start))
	}
	if got := b.String(); got != copyDurationsWant {
		t.Fatalf("copy durations changed:\n%s\nwant:\n%s", got, copyDurationsWant)
	}
}

// pdHandoffNs runs one request through a 1:1 prefill/decode split with the
// default interconnect and returns its KV-transfer time.
func pdHandoffNs(t *testing.T) sim.Time {
	t.Helper()
	env := sim.NewEnv()
	pd, err := cluster.NewPD(env, cluster.PDConfig{
		LLM: llm.Config{
			Spec: llm.Spec{
				Name: "tiny", KVBytesPerToken: 1 << 10,
				PrefillTokensPerBlock: 4, PrefillThreads: 128, PrefillBlockTime: 20 * sim.Microsecond,
				ProfilePromptTokens: 16,
				DecodeBlocks:        2, DecodeThreads: 128, DecodeBlockTime: 10 * sim.Microsecond,
			},
			DevCfg: gpu.TeslaT4(), VRAMBytes: 256 * (4 << 10), KVBlockBytes: 4 << 10,
			MaxBatch: 4, Continuous: true,
		},
		Prefills: 1, Decodes: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var got []metrics.JobRecord
	pd.OnFinish = func(r metrics.JobRecord) { got = append(got, r) }
	env.At(0, func() { pd.Submit(llm.Request{ID: 1, Prompt: 37, Output: 3}) })
	env.Run()
	if len(got) != 1 || got[0].Failed {
		t.Fatalf("pd records %+v, want one completion", got)
	}
	return got[0].KVTransferNs
}

// jbjCopySpans serves one TinyNet request on a Paella-MS-jbj dispatcher
// and returns the recorder's stream-memcpy spans.
func jbjCopySpans(t *testing.T) []trace.SpanView {
	t.Helper()
	env := sim.NewEnv()
	rec := trace.New()
	env.SetRecorder(rec)
	cfg := core.DefaultConfig(nil)
	cfg.Mode = core.ModeJobByJob
	devCfg := gpu.TeslaT4()
	d := core.NewWithDevice(env, devCfg, cfg)
	if err := d.RegisterModel(compiler.MustCompile(model.TinyNet(), compiler.DefaultConfig(), devCfg, 2)); err != nil {
		t.Fatal(err)
	}
	d.Start()
	conn := d.Connect()
	done := false
	conn.OnComplete = func(uint64) { done = true; d.Stop() }
	env.At(0, func() { conn.Submit(core.Request{ID: 1, Model: "tinynet", Client: conn.ID}) })
	env.Run()
	if !done {
		t.Fatal("jbj request never completed")
	}
	var out []trace.SpanView
	for _, s := range rec.Spans() {
		if s.Cat == "stream-memcpy" {
			out = append(out, s)
		}
	}
	if len(out) == 0 {
		t.Fatal("jbj run recorded no stream memcpys")
	}
	return out
}

const copyDurationsWant = `cold vram=false factor=1 bytes=0: 0
cold vram=false factor=1 bytes=1: 10000
cold vram=false factor=1 bytes=4096: 10341
cold vram=false factor=1 bytes=1048576: 97381
cold vram=false factor=1 bytes=123456789: 10298065
cold vram=false factor=0.37 bytes=0: 0
cold vram=false factor=0.37 bytes=1: 10000
cold vram=false factor=0.37 bytes=4096: 10922
cold vram=false factor=0.37 bytes=1048576: 246165
cold vram=false factor=0.37 bytes=123456789: 27815583
cold vram=false factor=0.2 bytes=0: 0
cold vram=false factor=0.2 bytes=1: 10000
cold vram=false factor=0.2 bytes=4096: 11706
cold vram=false factor=0.2 bytes=1048576: 446906
cold vram=false factor=0.2 bytes=123456789: 51450328
cold vram=true factor=1 bytes=0: 0
cold vram=true factor=1 bytes=1: 10000
cold vram=true factor=1 bytes=4096: 10341
cold vram=true factor=1 bytes=1048576: 97381
cold vram=true factor=1 bytes=123456789: 10298065
cold vram=true factor=0.37 bytes=0: 0
cold vram=true factor=0.37 bytes=1: 10000
cold vram=true factor=0.37 bytes=4096: 10922
cold vram=true factor=0.37 bytes=1048576: 246165
cold vram=true factor=0.37 bytes=123456789: 27815583
cold vram=true factor=0.2 bytes=0: 0
cold vram=true factor=0.2 bytes=1: 10000
cold vram=true factor=0.2 bytes=4096: 11706
cold vram=true factor=0.2 bytes=1048576: 446906
cold vram=true factor=0.2 bytes=123456789: 51450328
pd kv handoff: 13157
jbj memcpy cudaMemcpyHostToDevice bytes=3136: 10261
`
