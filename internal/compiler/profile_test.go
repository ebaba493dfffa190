package compiler_test

import (
	"testing"

	"paella/internal/compiler"
	"paella/internal/gpu"
	"paella/internal/llm"
	"paella/internal/model"
)

// llmModel builds the two-kernel library llm.CompileSpec profiles, from the
// default spec.
func llmModel() *model.Model {
	s := llm.DefaultSpec()
	prefill := gpu.KernelSpec{
		Name:            llm.PrefillKernel,
		Blocks:          (s.ProfilePromptTokens + s.PrefillTokensPerBlock - 1) / s.PrefillTokensPerBlock,
		ThreadsPerBlock: s.PrefillThreads,
		RegsPerThread:   s.PrefillRegs,
		BlockDuration:   s.PrefillBlockTime,
	}
	decode := gpu.KernelSpec{
		Name:            llm.DecodeKernel,
		Blocks:          s.DecodeBlocks,
		ThreadsPerBlock: s.DecodeThreads,
		RegsPerThread:   s.DecodeRegs,
		BlockDuration:   s.DecodeBlockTime,
	}
	return &model.Model{
		Name:        s.Name,
		WeightBytes: int(s.WeightBytes),
		Kernels:     []*gpu.KernelSpec{&prefill, &decode},
		Seq:         []int{0, 1},
	}
}

// TestLLMModelMatchesCompileSpec checks llmModel against the library
// llm.CompileSpec actually profiles, so the oracle test below covers it.
func TestLLMModelMatchesCompileSpec(t *testing.T) {
	c, err := llm.CompileSpec(llm.Config{Spec: llm.DefaultSpec(), DevCfg: gpu.TeslaT4()})
	if err != nil {
		t.Fatal(err)
	}
	ins := compiler.MustCompile(llmModel(), compiler.DefaultConfig(), gpu.TeslaT4(), 3)
	if d := compiler.ProfileDiff(ins.Profile, c.Profile); d != "" {
		t.Fatal(d)
	}
}

// TestProfileMatchesCoroutineOracle checks the callback-chain profiler
// against the coroutine one it replaced: every kernel's statistics and the
// whole suffix table are identical, for every model, device and run count.
func TestProfileMatchesCoroutineOracle(t *testing.T) {
	models := append(model.SyntheticZoo(8), model.TinyNet(), llmModel())
	// The bare T4 submits each kernel straight into its hardware queue,
	// the case where the next submit lands before the device's pending
	// scheduling pass instead of after it.
	bare := gpu.TeslaT4()
	bare.Name, bare.LaunchOverhead = "bare T4", 0
	devs := []gpu.Config{gpu.TeslaT4(), gpu.TeslaP100(), gpu.GTX1660Super(), bare}
	for _, m := range models {
		for _, dev := range devs {
			for runs := 1; runs <= 3; runs++ {
				got, err := compiler.Instrument(m, compiler.DefaultConfig())
				if err != nil {
					t.Fatal(err)
				}
				want, _ := compiler.Instrument(m, compiler.DefaultConfig())
				if _, err := compiler.ProfileModel(got, dev, runs); err != nil {
					t.Fatal(err)
				}
				if _, err := compiler.CoroutineProfileModel(want, dev, runs); err != nil {
					t.Fatal(err)
				}
				if d := compiler.ProfileDiff(got.Profile, want.Profile); d != "" {
					t.Errorf("%s on %s, %d runs: %s", m.Name, dev.Name, runs, d)
				}
			}
		}
	}
}

func BenchmarkProfileModel(b *testing.B) {
	zoo := model.SyntheticZoo(8)
	dev := gpu.TeslaT4()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range zoo {
			compiler.MustCompile(m, compiler.DefaultConfig(), dev, 1)
		}
	}
}
