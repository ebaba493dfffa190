// Package serving assembles the complete serving systems compared in the
// paper's Table 3 and drives them with request traces:
//
//   - CUDA-SS / CUDA-MS / MPS: no serving frontend — client processes
//     submit whole jobs directly to the CUDA runtime (one shared stream, a
//     stream per job, or per-process contexts under MPS).
//   - Triton: an RPC frontend with per-byte serialization, a FIFO
//     per-model scheduler, and job-granularity dispatch.
//   - Clockwork: a controller/worker split that executes one model at a
//     time for predictability.
//   - Paella and its ablations (Paella-SS, Paella-MS-jbj, Paella-MS-kbk,
//     Paella-SJF, Paella-RR): the core.Dispatcher in its various modes.
//
// Every system consumes the same workload.Request traces and produces a
// metrics.Collector, so experiments compare like for like.
//
// Fleets run through this package too: NewFleet builds a set of
// gated-Paella replicas behind a gateway policy from the same Options,
// configuring each replica's dispatcher exactly as the single-GPU
// "Paella" system does, and Fleet.Arrive feeds it a trace. So do
// generative deployments: NewDeployment builds llm engines behind the
// prefill/decode front of internal/cluster from Options and its LLM
// options, and Deployment.Arrive feeds it a trace with sampled token
// lengths. The Paella-LLM systems are such deployments.
package serving

import (
	"fmt"

	"paella/internal/compiler"
	"paella/internal/fault"
	"paella/internal/gpu"
	"paella/internal/metrics"
	"paella/internal/model"
	"paella/internal/sim"
	"paella/internal/telemetry"
	"paella/internal/trace"
	"paella/internal/vram"
	"paella/internal/workload"
)

// Options configures a run.
type Options struct {
	// DevCfg is the GPU to simulate.
	DevCfg gpu.Config
	// Models are the deployable models (uninstrumented; systems that need
	// instrumentation compile them at setup).
	Models []*model.Model
	// CompilerCfg configures Paella's instrumentation pass.
	CompilerCfg compiler.Config
	// ProfileRuns is the number of profiling executions per model.
	ProfileRuns int
	// MaxSimTime bounds a run (0 = run to completion). Requests not
	// delivered by then are dropped from the collector — use for
	// saturation points that would otherwise never drain.
	MaxSimTime sim.Time
	// VRAM, when non-nil, gives the Paella dispatcher a device-memory
	// budget: model weights page in on demand and evict LRU
	// (internal/vram). Nil models unconstrained memory, the historical
	// behaviour. Only the gated Paella variants consume it.
	VRAM *vram.Config
	// Trace, when non-nil, attaches a structured tracing recorder to the
	// run: every layer (GPU, CUDA runtime, dispatcher, VRAM manager) emits
	// spans, instants, and counter samples into it. Nil (the default)
	// disables tracing with zero overhead and bit-identical simulation
	// behaviour.
	Trace *trace.Recorder
	// Telemetry, when non-nil, attaches a windowed telemetry meter to the
	// run: every layer samples its gauges, counters, and histograms into
	// fixed virtual-time windows, and completed records feed the meter's
	// job instruments and SLO monitors. Nil (the default) disables
	// metering with zero overhead and bit-identical simulation behaviour.
	Telemetry *telemetry.Meter
	// Faults, when non-nil, installs the plan's fault schedule into the run
	// (internal/fault) and arms the gated Paella dispatcher's recovery
	// machinery (watchdog, tolerant notification handling). Only the gated
	// Paella variants consume it — the baseline systems model no fault
	// handling, as their real counterparts crash or hang.
	Faults *fault.Plan
	// MaxBatch, when > 1, enables dynamic batching in the gated Paella
	// dispatcher: same-model, same-position ready kernels coalesce into one
	// widened launch (core.Config.MaxBatch). The baselines ignore it —
	// Triton's batching variant carries its own knobs.
	MaxBatch int
	// BatchWindow bounds the batch-formation hold for a lone ready kernel
	// (core.Config.BatchWindow). Zero means opportunistic coalescing only.
	BatchWindow sim.Time
	// LLM configures the generative systems (Paella-LLM and friends); nil
	// selects their defaults. The non-generative systems ignore it.
	LLM *LLMOptions
}

// DefaultOptions returns a T4 setup with the full Table 2 zoo.
func DefaultOptions() Options {
	return Options{
		DevCfg:      gpu.TeslaT4(),
		Models:      model.Table2Models(),
		CompilerCfg: compiler.DefaultConfig(),
		ProfileRuns: 2,
	}
}

// System is one serving system under test.
type System interface {
	// Name returns the Table 3 key.
	Name() string
	// Setup prepares the system on a fresh environment for the given
	// number of clients.
	Setup(env *sim.Env, opts Options, numClients int) error
	// Submit delivers one request at the current simulation time.
	Submit(req workload.Request)
	// Collector returns per-request results.
	Collector() *metrics.Collector
}

// RunTrace executes a trace against a system and returns the collected
// per-request records.
func RunTrace(sys System, trace []workload.Request, opts Options) (*metrics.Collector, error) {
	if len(trace) == 0 {
		return nil, fmt.Errorf("serving: empty trace")
	}
	numClients := 0
	for _, r := range trace {
		if r.Client >= numClients {
			numClients = r.Client + 1
		}
	}
	env := sim.NewEnv()
	if opts.Trace != nil {
		env.SetRecorder(opts.Trace)
	}
	if opts.Telemetry != nil {
		env.SetMeter(opts.Telemetry)
	}
	if err := sys.Setup(env, opts, numClients); err != nil {
		return nil, err
	}
	for _, r := range trace {
		r := r
		env.At(r.At, func() { sys.Submit(r) })
	}
	if opts.MaxSimTime > 0 {
		env.RunUntil(opts.MaxSimTime)
	} else {
		env.Run()
	}
	// Unwind the processes still parked (the dispatcher loop, clients
	// waiting on replies), so the system is collectable once the caller
	// drops it.
	env.Close()
	return sys.Collector(), nil
}

// MustRunTrace is RunTrace for known-good inputs; it panics on error.
func MustRunTrace(sys System, trace []workload.Request, opts Options) *metrics.Collector {
	c, err := RunTrace(sys, trace, opts)
	if err != nil {
		panic(err)
	}
	return c
}

// compileAll instruments and profiles every model.
func compileAll(opts Options) (map[string]*compiler.Instrumented, error) {
	out := make(map[string]*compiler.Instrumented, len(opts.Models))
	runs := opts.ProfileRuns
	if runs <= 0 {
		runs = 1
	}
	for _, m := range opts.Models {
		ins, err := compiler.Compile(m, opts.CompilerCfg, opts.DevCfg, runs)
		if err != nil {
			return nil, err
		}
		out[m.Name] = ins
	}
	return out, nil
}

func findModel(opts Options, name string) (*model.Model, error) {
	for _, m := range opts.Models {
		if m.Name == name {
			return m, nil
		}
	}
	return nil, fmt.Errorf("serving: model %q not deployed", name)
}
