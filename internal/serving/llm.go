package serving

import (
	"paella/internal/cluster"
	"paella/internal/llm"
	"paella/internal/metrics"
	"paella/internal/sim"
	"paella/internal/workload"
)

// LLMOptions configures the generative serving systems (Paella-LLM and
// friends): the model, its token lengths, and the deployment's shape.
// The zero LLMOptions — or a nil Options.LLM — selects DefaultSpec on the
// run's device with seeded default token lengths; NewDeployment needs
// Prefills ≥ 1, which the Paella-LLM systems set themselves.
// Options.MaxBatch caps the decode batch width and Options.VRAM sets the
// memory budget and KV page size.
type LLMOptions struct {
	// Spec is the generative model (zero Name → llm.DefaultSpec()).
	Spec llm.Spec
	// Tokens is the prompt/output length distribution (zero → default
	// spec, seed 1).
	Tokens workload.TokenSpec
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
}

// Deployment is a generative deployment — llm engines behind the
// prefill/decode front of internal/cluster — built from Options, with the
// seeded token sampler its arrivals draw from.
type Deployment struct {
	*cluster.PD
	executor
	sampler *workload.TokenSampler
}

// NewDeployment builds the deployment from opts.DevCfg, opts.LLM (nil
// selects its defaults), opts.MaxBatch, opts.VRAM and opts.Gateway on a
// fresh Env that opts.Trace and opts.Telemetry observe. The other Options
// fields are not consumed: run with RunUntil.
func NewDeployment(opts Options) (*Deployment, error) {
	return newDeployment(observed(sim.NewEnv(), opts), opts)
}

// newDeployment builds the deployment on env.
func newDeployment(env *sim.Env, opts Options) (*Deployment, error) {
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
		LLM:      llm.Config{Spec: lo.Spec, DevCfg: opts.DevCfg, MaxBatch: opts.MaxBatch, Continuous: !lo.Static},
		Prefills: lo.Prefills, Decodes: lo.Decodes, LinkBytesPerNs: lo.LinkBytesPerNs,
		Engines: lo.Engines, MakePolicy: opts.Gateway,
	}
	if v := opts.VRAM; v != nil {
		cfg.LLM.VRAMBytes, cfg.LLM.KVBlockBytes = v.CapacityBytes, v.BlockBytes
	}
	d := &Deployment{executor: executor{ctrl: env}, sampler: sampler}
	if d.PD, err = cluster.NewPD(env, cfg); err != nil {
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
// single colocated engine or a 1-prefill/1-decode disaggregated pair. Its
// shape fixes the deployment's Static, Prefills and Decodes; Options.LLM
// supplies the rest.
type llmSystem struct {
	name   string
	shape  LLMOptions
	dep    *Deployment
	nextID uint64
}

func (s *llmSystem) Name() string { return s.name }

func (s *llmSystem) Setup(env *sim.Env, opts Options, _ int) error {
	lo := LLMOptions{}
	if opts.LLM != nil {
		lo = *opts.LLM
	}
	lo.Static, lo.Prefills, lo.Decodes = s.shape.Static, s.shape.Prefills, s.shape.Decodes
	opts.LLM = &lo
	var err error
	s.dep, err = newDeployment(env, opts)
	return err
}

// Submit delivers trace requests in submission order, numbered from 1 as
// Deployment.Arrive numbers them.
func (s *llmSystem) Submit(req workload.Request) {
	s.nextID++
	s.dep.Submit(s.dep.request(s.nextID, req))
}

func (s *llmSystem) Collector() *metrics.Collector { return s.dep.Collector() }
