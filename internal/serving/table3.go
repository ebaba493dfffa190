package serving

import (
	"fmt"

	"paella/internal/core"
	"paella/internal/sched"
)

// SystemInfo names a serving system and, for the rows of the paper's
// Table 3, gives that table's columns; they are empty for the systems this
// repository adds.
type SystemInfo struct {
	Name      string
	Interface string
	Dispatch  string
	Scheduler string
}

// systems is every system NewSystem builds: the paper's Table 3 in its row
// order, then the extensions. build receives the row's name.
var systems = []struct {
	SystemInfo
	build func(name string) System
}{
	{SystemInfo{"CUDA-SS", "Direct", "job", "FIFO"},
		func(n string) System { return &directSystem{name: n, mode: directSingleStream} }},
	{SystemInfo{"CUDA-MS", "Direct", "job", "CUDA"},
		func(n string) System { return &directSystem{name: n, mode: directMultiStream} }},
	{SystemInfo{"MPS", "Direct", "job", "MPS"},
		func(n string) System { return &directSystem{name: n, mode: directMPS} }},
	// Clockwork executes one model at a time, globally.
	{SystemInfo{"Clockwork", "Boost Asio", "job", "FIFO"},
		func(n string) System { return &tritonSystem{name: n, costs: ClockworkCosts(), exclusive: true} }},
	{SystemInfo{"Triton", "gRPC", "job", "CUDA"},
		func(n string) System { return &tritonSystem{name: n, costs: TritonCosts()} }},
	{SystemInfo{"Paella-SS", "mem channels", "job", "FIFO"},
		func(n string) System { return &paellaSystem{name: n, mode: core.ModeSingleStream} }},
	{SystemInfo{"Paella-MS-jbj", "mem channels", "job", "CUDA"},
		func(n string) System { return &paellaSystem{name: n, mode: core.ModeJobByJob} }},
	{SystemInfo{"Paella-MS-kbk", "mem channels", "kernel", "CUDA"},
		func(n string) System { return &paellaSystem{name: n, mode: core.ModeKernelByKernel} }},
	{SystemInfo{"Paella", "mem channels", "kernel", "SRPT+deficit"},
		func(n string) System { return NewPaellaTweaked(n, nil) }},
	{SystemInfo{"Paella-SJF", "mem channels", "kernel", "SJF"},
		func(n string) System { return &paellaSystem{name: n, mode: core.ModeGated, policy: sched.NewSJF} }},
	{SystemInfo{"Paella-RR", "mem channels", "kernel", "RR"},
		func(n string) System { return &paellaSystem{name: n, mode: core.ModeGated, policy: sched.NewRR} }},
	// The Figure 2 dispatcher.
	{SystemInfo{Name: "Paella-FIFO"},
		func(n string) System { return &paellaSystem{name: n, mode: core.ModeGated, policy: sched.NewFIFO} }},
	{SystemInfo{Name: "Paella-batch"},
		func(n string) System { return NewPaellaTweaked(n, stockBatching) }},
	{SystemInfo{Name: "Triton-batch"},
		func(string) System { return NewTritonBatching(DefaultBatchWindow, DefaultMaxBatch) }},
	// The generative systems: continuous batching on one colocated engine;
	// launch-time batching, the baseline continuous batching exists to
	// beat; and a disaggregated one-prefill/one-decode pair with the KV
	// handoff over the interconnect.
	{SystemInfo{Name: "Paella-LLM"},
		func(n string) System { return &llmSystem{name: n, shape: LLMOptions{Prefills: 1}} }},
	{SystemInfo{Name: "Paella-LLM-static"},
		func(n string) System { return &llmSystem{name: n, shape: LLMOptions{Prefills: 1, Static: true}} }},
	{SystemInfo{Name: "Paella-LLM-PD"},
		func(n string) System { return &llmSystem{name: n, shape: LLMOptions{Prefills: 1, Decodes: 1}} }},
}

// stockBatching configures the Paella-batch system's dispatcher.
func stockBatching(cfg *core.Config) {
	cfg.MaxBatch, cfg.BatchWindow = DefaultMaxBatch, DefaultBatchWindow
}

// Systems returns every system NewSystem builds, Table 3's rows first.
func Systems() []SystemInfo {
	out := make([]SystemInfo, len(systems))
	for i, s := range systems {
		out[i] = s.SystemInfo
	}
	return out
}

// Table3 returns the compared systems of the paper's Table 3 and their
// properties.
func Table3() []SystemInfo {
	var out []SystemInfo
	for _, s := range systems {
		if s.Interface != "" {
			out = append(out, s.SystemInfo)
		}
	}
	return out
}

// NewSystem constructs any system of Systems by name.
func NewSystem(name string) (System, error) {
	for _, s := range systems {
		if s.Name == name {
			return s.build(name), nil
		}
	}
	return nil, fmt.Errorf("serving: unknown system %q", name)
}

// MustNewSystem is NewSystem for known-good names; it panics on error.
func MustNewSystem(name string) System {
	s, err := NewSystem(name)
	if err != nil {
		panic(err)
	}
	return s
}
