// Package model represents compiled inference models as the Paella
// dispatcher sees them: an ordered sequence of CUDA kernel executions
// (drawn from a smaller set of unique compiled kernels, since TVM graphs
// reuse operators) bracketed by host↔device tensor copies.
//
// The zoo in zoo.go synthesizes kernel graphs whose end-to-end execution
// times match Table 2 of the paper, with realistic kernel counts and
// per-kernel execution configurations. Generation is seeded by model name,
// so every run of every experiment sees byte-identical models.
package model

import (
	"fmt"

	"paella/internal/gpu"
	"paella/internal/sim"
)

// Model is one deployable inference model.
type Model struct {
	Name string
	// InputBytes and OutputBytes size the tensors copied across PCIe (and,
	// under Triton, serialized through RPC).
	InputBytes  int
	OutputBytes int
	// WeightBytes is the device-memory footprint of the model's weights
	// (fp32 parameters). internal/vram uses it for residency accounting;
	// zero means "negligible" and the model is treated as always resident.
	WeightBytes int
	// Kernels is the set of unique compiled kernels in the shared library.
	Kernels []*gpu.KernelSpec
	// Seq is the execution order: indices into Kernels. TVM's graph
	// executor runs the sequence serially on one stream.
	Seq []int
	// PinnedOutput indicates the output is written to pinned host memory
	// directly by the final kernel, eliding the trailing D2H copy (§4.2's
	// almost-finished annotation then precedes the last kernel launch).
	PinnedOutput bool
}

// Validate reports structural problems.
func (m *Model) Validate() error {
	if m.Name == "" {
		return fmt.Errorf("model without a name")
	}
	if len(m.Seq) == 0 {
		return fmt.Errorf("model %q has no kernel executions", m.Name)
	}
	for _, i := range m.Seq {
		if i < 0 || i >= len(m.Kernels) {
			return fmt.Errorf("model %q: sequence index %d out of range", m.Name, i)
		}
	}
	for _, k := range m.Kernels {
		if err := k.Validate(); err != nil {
			return fmt.Errorf("model %q: %w", m.Name, err)
		}
	}
	return nil
}

// NumExecutions returns the number of kernel launches one inference issues.
func (m *Model) NumExecutions() int { return len(m.Seq) }

// NumUnique returns the number of unique kernels.
func (m *Model) NumUnique() int { return len(m.Kernels) }

// KernelTime returns the sum of per-execution block durations: the model's
// compute time assuming every kernel's blocks run fully concurrently.
func (m *Model) KernelTime() sim.Time {
	var t sim.Time
	for _, i := range m.Seq {
		t += m.Kernels[i].BlockDuration
	}
	return t
}

// Counts returns how many times each unique kernel appears in Seq —
// the C_i of the paper's remaining-time formula (§6).
func (m *Model) Counts() []int {
	counts := make([]int, len(m.Kernels))
	for _, i := range m.Seq {
		counts[i]++
	}
	return counts
}

// TotalBlocks returns the total number of thread blocks one inference
// places on the device.
func (m *Model) TotalBlocks() int {
	n := 0
	for _, i := range m.Seq {
		n += m.Kernels[i].Blocks
	}
	return n
}
