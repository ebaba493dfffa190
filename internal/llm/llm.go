// Package llm adds autoregressive (generative) serving on top of the
// Paella building blocks: a prefill kernel computes the prompt's KV state
// in one pass, then one decode kernel execution per output token extends
// it. The KV cache is paged through internal/vram in fixed-size blocks
// (vLLM-style), so memory is committed token-by-token and reclaimed by
// preemption-by-recompute when the device runs out. Decode launches are
// batched continuously: requests join and retire at iteration boundaries
// rather than at batch-formation time, and each iteration is charged to
// every member's client through the §6 fairness machinery.
package llm

import (
	"fmt"

	"paella/internal/compiler"
	"paella/internal/gpu"
	"paella/internal/model"
	"paella/internal/sim"
	"paella/internal/vram"
)

// Kernel names in the compiled two-kernel LLM library. The prefill grid is
// sized per request (blocks = ⌈tokens/PrefillTokensPerBlock⌉) but keeps the
// library name, so profile statistics aggregate across prompt lengths.
const (
	PrefillKernel = "llm/prefill"
	DecodeKernel  = "llm/decode"
)

// Spec describes one generative model: its memory footprint and the
// execution configurations of its two kernels.
type Spec struct {
	Name string
	// WeightBytes is the device-resident parameter footprint, pinned for
	// the engine's lifetime; the rest of VRAM is the KV-page pool.
	WeightBytes int64
	// KVBytesPerToken is the per-token KV-cache footprint across all
	// layers (2 · layers · hidden · bytes-per-scalar).
	KVBytesPerToken int64

	// Prefill processes PrefillTokensPerBlock prompt tokens per thread
	// block, so its grid — and device pressure — scales with prompt length.
	PrefillTokensPerBlock int
	PrefillThreads        int
	PrefillRegs           int
	PrefillBlockTime      sim.Time
	// ProfilePromptTokens sizes the representative prompt used when
	// profiling the prefill kernel.
	ProfilePromptTokens int

	// Decode runs one fixed small grid per iteration (one token per
	// member); batching widens it n× with the profiled sub-linear scale.
	DecodeBlocks    int
	DecodeThreads   int
	DecodeRegs      int
	DecodeBlockTime sim.Time
}

// DefaultSpec returns a mid-size generative model calibrated for the Tesla
// T4: ~12 GiB of fp16 weights leaves ~4 GiB of KV pool on a 16 GiB card,
// and 64 KiB/token packs 32 tokens into one 2 MiB page.
func DefaultSpec() Spec {
	return Spec{
		Name:                  "llm-7b",
		WeightBytes:           12 << 30,
		KVBytesPerToken:       64 << 10,
		PrefillTokensPerBlock: 4,
		PrefillThreads:        512,
		PrefillRegs:           64,
		PrefillBlockTime:      400 * sim.Microsecond,
		ProfilePromptTokens:   200,
		DecodeBlocks:          8,
		DecodeThreads:         256,
		DecodeRegs:            64,
		DecodeBlockTime:       250 * sim.Microsecond,
	}
}

// Validate reports a descriptive error for nonsensical specs.
func (s *Spec) Validate() error {
	switch {
	case s.Name == "":
		return fmt.Errorf("llm: spec without a name")
	case s.WeightBytes < 0:
		return fmt.Errorf("llm %q: negative weight footprint", s.Name)
	case s.KVBytesPerToken <= 0:
		return fmt.Errorf("llm %q: KV bytes per token %d", s.Name, s.KVBytesPerToken)
	case s.PrefillTokensPerBlock <= 0:
		return fmt.Errorf("llm %q: prefill tokens per block %d", s.Name, s.PrefillTokensPerBlock)
	case s.PrefillThreads <= 0 || s.DecodeThreads <= 0:
		return fmt.Errorf("llm %q: non-positive block size", s.Name)
	case s.PrefillBlockTime <= 0 || s.DecodeBlockTime <= 0:
		return fmt.Errorf("llm %q: non-positive block duration", s.Name)
	case s.DecodeBlocks <= 0:
		return fmt.Errorf("llm %q: decode grid size %d", s.Name, s.DecodeBlocks)
	case s.ProfilePromptTokens <= 0:
		return fmt.Errorf("llm %q: profile prompt length %d", s.Name, s.ProfilePromptTokens)
	}
	return nil
}

// Config assembles one engine's model, device, and serving knobs.
type Config struct {
	Spec   Spec
	DevCfg gpu.Config
	// VRAMBytes is the device-memory budget (0 → DevCfg.VRAMBytes).
	VRAMBytes int64
	// KVBlockBytes is the KV-page granularity (0 → vram.DefaultBlockBytes).
	KVBlockBytes int64
	// MaxBatch caps the decode batch width (0 → 8).
	MaxBatch int
	// Continuous selects iteration-boundary batching: requests join and
	// retire between decode iterations. False selects launch-time (static)
	// batching: the batch is formed once, padded at its formation width,
	// and admits nobody until it fully drains — the baseline continuous
	// batching exists to beat.
	Continuous bool
}

// profileRuns is the profiling repetition count.
const profileRuns = 3

func (c *Config) withDefaults() (Config, error) {
	out := *c
	if err := out.Spec.Validate(); err != nil {
		return out, err
	}
	if out.VRAMBytes == 0 {
		out.VRAMBytes = out.DevCfg.VRAMBytes
	}
	if out.KVBlockBytes == 0 {
		out.KVBlockBytes = vram.DefaultBlockBytes
	}
	if out.MaxBatch <= 0 {
		out.MaxBatch = 8
	}
	if out.KVBlockBytes < out.Spec.KVBytesPerToken {
		return out, fmt.Errorf("llm %q: KV page (%d B) smaller than one token's KV (%d B)",
			out.Spec.Name, out.KVBlockBytes, out.Spec.KVBytesPerToken)
	}
	if out.VRAMBytes <= out.Spec.WeightBytes {
		return out, fmt.Errorf("llm %q: weights (%d B) leave no KV pool in %d B of VRAM",
			out.Spec.Name, out.Spec.WeightBytes, out.VRAMBytes)
	}
	return out, nil
}

// Compiled is a spec after the compiler's profiling pass: the two kernel
// templates plus the learned timing/batch-scaling profile the engine's
// scheduler estimates run on.
type Compiled struct {
	Cfg     Config
	Profile *compiler.Profile

	prefill gpu.KernelSpec // template; Blocks sized per request
	decode  gpu.KernelSpec
	// tokensPerPage is how many tokens' KV one vram block holds.
	tokensPerPage int

	prefillSpecs map[int]*gpu.KernelSpec // by block count
	decodeSpecs  map[int]*gpu.KernelSpec // by batch width

	// prefillMean and decodeMean are the profiled mean kernel times, read
	// once at compile time: the engine prices every member of every decode
	// iteration with decodeMean. Nothing refines an LLM profile after
	// compiler.ProfileModel returns, so the cached values never go stale.
	prefillMean, decodeMean sim.Time
}

// CompileSpec runs the standard submission pipeline on the two-kernel LLM
// library: instrument, then profile on the target device so the engine
// knows mean kernel times and the decode kernel's batch-scaling α.
func CompileSpec(cfg Config) (*Compiled, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	s := cfg.Spec
	prefill := gpu.KernelSpec{
		Name:            PrefillKernel,
		Blocks:          pagesCeil(s.ProfilePromptTokens, s.PrefillTokensPerBlock),
		ThreadsPerBlock: s.PrefillThreads,
		RegsPerThread:   s.PrefillRegs,
		BlockDuration:   s.PrefillBlockTime,
	}
	decode := gpu.KernelSpec{
		Name:            DecodeKernel,
		Blocks:          s.DecodeBlocks,
		ThreadsPerBlock: s.DecodeThreads,
		RegsPerThread:   s.DecodeRegs,
		BlockDuration:   s.DecodeBlockTime,
	}
	m := &model.Model{
		Name:        s.Name,
		WeightBytes: int(s.WeightBytes),
		Kernels:     []*gpu.KernelSpec{&prefill, &decode},
		Seq:         []int{0, 1},
	}
	ins, err := compiler.Compile(m, compiler.DefaultConfig(), cfg.DevCfg, profileRuns)
	if err != nil {
		return nil, fmt.Errorf("llm %q: %w", s.Name, err)
	}
	return &Compiled{
		Cfg:           cfg,
		Profile:       ins.Profile,
		prefill:       prefill,
		decode:        decode,
		tokensPerPage: int(cfg.KVBlockBytes / s.KVBytesPerToken),
		prefillSpecs:  make(map[int]*gpu.KernelSpec),
		decodeSpecs:   make(map[int]*gpu.KernelSpec),
		prefillMean:   ins.Profile.MeanTime(PrefillKernel),
		decodeMean:    ins.Profile.MeanTime(DecodeKernel),
	}, nil
}

// PagesFor returns the KV pages needed to hold the given token count.
func (c *Compiled) PagesFor(tokens int) int {
	return pagesCeil(tokens, c.tokensPerPage)
}

// PrefillSpec returns the prefill launch configuration for a prompt of the
// given token count (grid sized to the prompt, cached per block count).
func (c *Compiled) PrefillSpec(tokens int) *gpu.KernelSpec {
	blocks := pagesCeil(tokens, c.Cfg.Spec.PrefillTokensPerBlock)
	if k := c.prefillSpecs[blocks]; k != nil {
		return k
	}
	k := c.prefill
	k.Blocks = blocks
	c.prefillSpecs[blocks] = &k
	return &k
}

// DecodeSpec returns the n-way batched decode launch configuration, widened
// with the profiled per-block batch scale (cached per width).
func (c *Compiled) DecodeSpec(n int) *gpu.KernelSpec {
	if k := c.decodeSpecs[n]; k != nil {
		return k
	}
	k := c.decode.Batched(n, c.Profile.BatchScale(DecodeKernel, n))
	c.decodeSpecs[n] = k
	return k
}

// DecodeMean returns the profiled solo decode-iteration time. It feeds
// the SRPT estimates and the gateway's per-replica cost pricing.
func (c *Compiled) DecodeMean() sim.Time { return c.decodeMean }

// PrefillMean returns the profiled prefill time for a representative
// Spec.ProfilePromptTokens-token prompt. It feeds the SRPT estimates and
// the gateway's per-replica cost pricing.
func (c *Compiled) PrefillMean() sim.Time { return c.prefillMean }

func pagesCeil(n, per int) int {
	if per <= 0 {
		panic("llm: non-positive divisor")
	}
	return (n + per - 1) / per
}
