// Package compiler reproduces Paella's TVM compiler pass (§4.1): a
// content-independent transformation that instruments every kernel of a
// model to export block placement/completion notifications, extracts the
// static resource metadata the dispatcher needs (grid size, block size,
// shared memory, register count), and profiles the model to learn the
// per-kernel execution statistics that drive SRPT scheduling (§6).
//
// In the paper the pass rewrites CUDA device code (Figure 6); here it
// rewrites kernel descriptors: instrumented kernels carry the measured
// wall-clock overhead of the notification writes, calibrated against the
// paper's Figure 15 microbenchmarks (and re-measured in this repository by
// the real benchmarks in internal/channel).
package compiler

import (
	"fmt"

	"paella/internal/gpu"
	"paella/internal/model"
	"paella/internal/sim"
)

// Config sets the instrumentation cost model.
type Config struct {
	// AggGroup is the notification aggregation group size (§5.2); the
	// paper uses 16. Zero or one disables aggregation (one record per
	// block).
	AggGroup int
	// BaseOverhead is the fixed wall-clock cost instrumentation adds to a
	// kernel execution (the two designated-thread writes and fences).
	BaseOverhead sim.Time
	// PerRecordOverhead is added per notifQ record emitted (enqueue
	// contention on the shared tail counter).
	PerRecordOverhead sim.Time
	// CondBase and CondPerBlock model the cost of the aggregation
	// conditional (Figure 15 shows it dominates the instrumentation
	// overhead): a fixed component plus a per-block component.
	CondBase     sim.Time
	CondPerBlock sim.Time
}

// DefaultConfig returns constants calibrated so that the instrumented
// empty-kernel overheads match the paper's Figure 15: ~5.5µs for 16 blocks
// and ~6.6µs for 160 blocks with aggregation, ~2.2µs for 160 blocks
// without.
func DefaultConfig() Config {
	return Config{
		AggGroup:          16,
		BaseOverhead:      1200 * sim.Nanosecond,
		PerRecordOverhead: 3 * sim.Nanosecond,
		CondBase:          3000 * sim.Nanosecond,
		CondPerBlock:      6 * sim.Nanosecond,
	}
}

// DefaultBatchAlphaMin and DefaultBatchAlphaMax bound the per-kernel
// batch-scaling coefficient α the profiler learns (see Profile.BatchScale).
// α is the marginal per-block cost of one extra batched sample relative to
// the first: an n-way batched launch of a kernel runs its widened grid with
// per-block duration scaled by (1+(n−1)α)/n. Kernels that saturate the
// device solo (occupancy ≈ 1) batch worst (α → max: extra samples just
// serialize into more waves); kernels that leave most of the device idle
// batch best (α → min: extra blocks ride free capacity). Calibrated so a
// fully occupancy-bound kernel keeps ~95% of its serial per-sample cost
// under batching while a tiny kernel amortizes down to ~40%, matching the
// sub-linear batch curves serving systems measure.
const (
	DefaultBatchAlphaMin = 0.40
	DefaultBatchAlphaMax = 0.95
)

// NoAggConfig returns DefaultConfig without notification aggregation (the
// Figure 15 ablation).
func NoAggConfig() Config {
	c := DefaultConfig()
	c.AggGroup = 0
	c.CondBase = 0
	c.CondPerBlock = 0
	return c
}

// Records returns the number of notifQ records one execution of a kernel
// with the given grid size emits (placements + completions).
func (c Config) Records(blocks int) int {
	g := c.AggGroup
	if g <= 1 {
		return 2 * blocks
	}
	return 2 * ((blocks + g - 1) / g)
}

// KernelOverhead returns the wall-clock execution-time overhead
// instrumentation adds to one kernel execution with the given grid size.
func (c Config) KernelOverhead(blocks int) sim.Time {
	o := c.BaseOverhead + sim.Time(c.Records(blocks))*c.PerRecordOverhead
	if c.AggGroup > 1 {
		o += c.CondBase + sim.Time(blocks)*c.CondPerBlock
	}
	return o
}

// Instrumented is a compiled, instrumented, profiled model: the unit users
// submit to the Paella service (the "compiled shared library plus adaptor"
// of §5.1).
type Instrumented struct {
	// Model is the instrumented kernel graph (kernels carry notification
	// overhead in their durations).
	Model *model.Model
	// Original is the uninstrumented input model.
	Original *model.Model
	// NotifGroup is the notification aggregation group the kernels were
	// instrumented with (Config.AggGroup, at least 1). The dispatcher
	// stamps it on each gpu.Launch of the model.
	NotifGroup int
	// Profile holds learned per-kernel execution statistics.
	Profile *Profile
}

// Instrument applies the compiler pass to a model. The transformation is
// uniform across kernels and requires no knowledge of their content,
// matching the paper's claim that any TVM model works unmodified.
func Instrument(m *model.Model, cfg Config) (*Instrumented, error) {
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("compiler: %w", err)
	}
	clone := &model.Model{
		Name:         m.Name,
		InputBytes:   m.InputBytes,
		OutputBytes:  m.OutputBytes,
		WeightBytes:  m.WeightBytes,
		Kernels:      make([]*gpu.KernelSpec, len(m.Kernels)),
		Seq:          append([]int(nil), m.Seq...),
		PinnedOutput: m.PinnedOutput,
	}
	for i, k := range m.Kernels {
		ik := *k
		ik.BlockDuration += cfg.KernelOverhead(k.Blocks)
		clone.Kernels[i] = &ik
	}
	return &Instrumented{Model: clone, Original: m, NotifGroup: max(cfg.AggGroup, 1)}, nil
}
