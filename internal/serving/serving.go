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
// lengths. The Paella-LLM systems are such deployments. Every front-end
// reads the same Options: Trace and Telemetry observe its control Env.
package serving

import (
	"fmt"

	"paella/internal/compiler"
	"paella/internal/fault"
	"paella/internal/gateway"
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
	// behaviour. The gated Paella variants consume it, and a generative
	// deployment takes its budget and KV page size from it (nil or zero
	// keeps the engine defaults).
	VRAM *vram.Config
	// Trace, when non-nil, attaches a structured tracing recorder to the
	// run: every layer (GPU, CUDA runtime, dispatcher, VRAM manager) emits
	// spans, instants, and counter samples into it. Nil (the default)
	// disables tracing with zero overhead and bit-identical simulation
	// behaviour. It observes the run's control Env; a World fleet's shards
	// are observed through ShardSetup.
	Trace *trace.Recorder
	// Telemetry, when non-nil, attaches a windowed telemetry meter to the
	// run: every layer samples its gauges, counters, and histograms into
	// fixed virtual-time windows, and completed records feed the meter's
	// job instruments and SLO monitors. Nil (the default) disables
	// metering with zero overhead and bit-identical simulation behaviour.
	// Like Trace, it observes the control Env.
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
	// Triton's batching variant carries its own knobs. A generative
	// deployment caps its decode batch width with it (0 → 8).
	MaxBatch int
	// BatchWindow bounds the batch-formation hold for a lone ready kernel
	// (core.Config.BatchWindow). Zero means opportunistic coalescing only.
	BatchWindow sim.Time
	// LLM configures the generative systems (Paella-LLM and friends); nil
	// selects their defaults. The non-generative systems ignore it.
	LLM *LLMOptions
	// Devices lists each fleet replica's GPU (possibly heterogeneous); a
	// fleet ignores DevCfg.
	Devices []gpu.Config
	// Gateway builds each routing policy instance of a fleet or a
	// deployment (nil → least-loaded).
	Gateway func() gateway.Policy
	// World, when non-nil, places each fleet replica on its own shard of
	// the conservative-window engine, with routing and arrivals on its
	// control Env; it must have no shards yet, and the caller closes it.
	// Nil runs every replica on one serial Env.
	World *sim.World
	// ShardSetup, with a World, runs with each replica's shard Env before
	// its dispatcher is built there (e.g. to attach a per-replica recorder
	// or meter).
	ShardSetup func(i int, shard *sim.Env)
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
	// Name returns the system's name, its key in the systems table.
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
	env := observed(sim.NewEnv(), opts)
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
	// Unwind the processes still parked (clients waiting on replies, job
	// adaptors), so the system is collectable once the caller drops it.
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

// observed attaches opts.Trace and opts.Telemetry, when set, to env and
// returns it.
func observed(env *sim.Env, opts Options) *sim.Env {
	if opts.Trace != nil {
		env.SetRecorder(opts.Trace)
	}
	if opts.Telemetry != nil {
		env.SetMeter(opts.Telemetry)
	}
	return env
}

func findModel(opts Options, name string) (*model.Model, error) {
	for _, m := range opts.Models {
		if m.Name == name {
			return m, nil
		}
	}
	return nil, fmt.Errorf("serving: model %q not deployed", name)
}
