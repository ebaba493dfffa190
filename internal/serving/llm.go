package serving

import (
	"paella/internal/cluster"
	"paella/internal/gateway"
	"paella/internal/llm"
	"paella/internal/metrics"
	"paella/internal/sim"
	"paella/internal/workload"
)

// LLMOptions configures the generative serving systems (Paella-LLM and
// friends). All fields have working defaults; the zero LLMOptions — or a
// nil Options.LLM — selects DefaultSpec on the run's device with seeded
// default token lengths.
type LLMOptions struct {
	// Spec is the generative model (zero Name → llm.DefaultSpec()).
	Spec llm.Spec
	// Tokens is the prompt/output length distribution (zero → default
	// spec, seed 1).
	Tokens workload.TokenSpec
	// MaxBatch caps the decode batch width (0 → 8).
	MaxBatch int
	// KVBlockBytes is the KV page granularity (0 → vram.DefaultBlockBytes).
	KVBlockBytes int64
	// VRAMBytes overrides the device-memory budget (0 → DevCfg.VRAMBytes).
	VRAMBytes int64
}

// DeploymentOptions describes what a generative deployment adds to
// Options: its batching, its engine pools, its gateway, and the Env it
// runs on.
type DeploymentOptions struct {
	// Static selects launch-time decode batching; the default is
	// continuous batching.
	Static bool
	// Prefills and Decodes are the pool sizes: Decodes == 0 deploys
	// Prefills colocated engines, otherwise prefill engines hand their KV
	// state to decode engines over the interconnect.
	Prefills, Decodes int
	// LinkBytesPerNs is the KV-handoff interconnect bandwidth (0 → the
	// PCIe peer-to-peer path).
	LinkBytesPerNs float64
	// Engines, if set, overrides each engine's llm config (length
	// Prefills+Decodes), modelling a heterogeneous pool.
	Engines []llm.Config
	// Gateway builds each routing policy instance (nil → least-loaded).
	Gateway func() gateway.Policy
	// Env is the Env every engine and the front run on; its recorder and
	// meter must be attached before the build. Nil means a fresh
	// unobserved Env.
	Env *sim.Env
}

// Deployment is a generative deployment — llm engines behind the
// prefill/decode front of internal/cluster — built from Options and
// DeploymentOptions, with the seeded token sampler its arrivals draw from.
type Deployment struct {
	*cluster.PD
	executor
	sampler *workload.TokenSampler
}

// NewDeployment builds the deployment from opts.DevCfg and opts.LLM (nil
// selects its defaults). The other Options fields are not consumed:
// attach observers to DeploymentOptions.Env and run with RunUntil.
func NewDeployment(opts Options, do DeploymentOptions) (*Deployment, error) {
	lo := LLMOptions{}
	if opts.LLM != nil {
		lo = *opts.LLM
	}
	if lo.Spec.Name == "" {
		lo.Spec = llm.DefaultSpec()
	}
	if lo.Tokens.PromptMean == 0 {
		lo.Tokens = workload.DefaultTokenSpec(1)
	}
	sampler, err := workload.NewTokenSampler(lo.Tokens)
	if err != nil {
		return nil, err
	}
	cfg := cluster.PDConfig{
		LLM: llm.Config{Spec: lo.Spec, DevCfg: opts.DevCfg, VRAMBytes: lo.VRAMBytes,
			KVBlockBytes: lo.KVBlockBytes, MaxBatch: lo.MaxBatch, Continuous: !do.Static},
		Prefills: do.Prefills, Decodes: do.Decodes, LinkBytesPerNs: do.LinkBytesPerNs,
		Engines: do.Engines, MakePolicy: do.Gateway,
	}
	d := &Deployment{executor: newExecutor(do.Env, nil), sampler: sampler}
	if d.PD, err = cluster.NewPD(d.ctrl, cfg); err != nil {
		return nil, err
	}
	return d, nil
}

// request draws r's token lengths from the sampler and returns it as
// llm.Request id, submitted at its arrival time. Each client is one
// ongoing conversation: session affinity keeps its turns on the replica
// holding the KV state.
func (d *Deployment) request(id uint64, r workload.Request) llm.Request {
	tk := d.sampler.Next()
	return llm.Request{ID: id, Client: r.Client, Tenant: r.Tenant, Submit: r.At,
		Prompt: tk.Prompt, Output: tk.Output, Session: uint64(r.Client) + 1}
}

// Arrive schedules every request of trace on the deployment's Env at its
// arrival time, as llm.Request i+1 submitted to the front. Token lengths
// are drawn in trace order, which is submission order: traces are
// monotone in arrival time.
func (d *Deployment) Arrive(trace []workload.Request) {
	for i, r := range trace {
		req := d.request(uint64(i+1), r)
		d.ctrl.At(r.At, func() { d.Submit(req) })
	}
}

// llmSystem is one generative deployment behind the System interface: a
// single colocated engine or a 1-prefill/1-decode disaggregated pair.
type llmSystem struct {
	name   string
	do     DeploymentOptions
	dep    *Deployment
	nextID uint64
}

func (s *llmSystem) Name() string { return s.name }

func (s *llmSystem) Setup(env *sim.Env, opts Options, _ int) error {
	s.do.Env = env
	var err error
	s.dep, err = NewDeployment(opts, s.do)
	return err
}

// Submit delivers trace requests in submission order, numbered from 1 as
// Deployment.Arrive numbers them.
func (s *llmSystem) Submit(req workload.Request) {
	s.nextID++
	s.dep.Submit(s.dep.request(s.nextID, req))
}

func (s *llmSystem) Collector() *metrics.Collector { return s.dep.Collector() }
