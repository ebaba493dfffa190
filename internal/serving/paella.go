package serving

import (
	"paella/internal/compiler"
	"paella/internal/core"
	"paella/internal/fault"
	"paella/internal/metrics"
	"paella/internal/sched"
	"paella/internal/sim"
	"paella/internal/workload"
)

// paellaSystem runs the core.Dispatcher in one of its modes with one of
// the §6 policies.
type paellaSystem struct {
	name   string
	mode   core.Mode
	policy func() sched.Policy // fresh policy per run (stateful)

	env    *sim.Env
	disp   *core.Dispatcher
	conns  []*core.ClientConn
	nextID uint64
	// tweak lets experiments override the dispatcher config (e.g. the
	// Figure 9 SchedDelay, the overshoot B, or the policy).
	tweak func(*core.Config)
	// injector is the run's fault injector (nil without Options.Faults).
	injector *fault.Injector
}

// DefaultFairnessThreshold is the deficit threshold (in kernel dispatches)
// used by the default Paella policy.
const DefaultFairnessThreshold = sched.DefaultFairnessThreshold

// NewPaellaTweaked builds the default Paella system with a dispatcher
// config override hook (Figure 9's injected delay, B sweeps, Figure 13's
// thresholds). tweak runs on every Setup, after the config holds a fresh
// default policy, so a tweak that sets cfg.Policy gives each run its own.
func NewPaellaTweaked(name string, tweak func(*core.Config)) System {
	return &paellaSystem{
		name: name,
		mode: core.ModeGated,
		policy: func() sched.Policy {
			return sched.NewPaella(DefaultFairnessThreshold)
		},
		tweak: tweak,
	}
}

// DefaultBatchWindow is the formation window used by the stock
// "Paella-batch" system: generous enough to gather partners under load, and
// adaptively shrunk (or skipped entirely) by the dispatcher at low
// occupancy, so unloaded latency is untouched.
const DefaultBatchWindow = 50 * sim.Microsecond

// DefaultMaxBatch is the stock "Paella-batch" width cap.
const DefaultMaxBatch = 8

// watchdogGrace is how far past a kernel's serial upper bound the
// dispatcher's watchdog waits on a faulty run.
const watchdogGrace = 50 * sim.Microsecond

// dispatcherConfig is the configuration of a Paella dispatcher in mode
// under opts, shared by the single-GPU systems and every fleet replica:
// the VRAM budget and, when gated, dynamic batching and — on a faulty run —
// the kernel watchdog, which also turns on tolerant notification handling
// (healthy runs leave it off so their event sequences, and golden traces,
// are untouched).
func dispatcherConfig(opts Options, mode core.Mode, pol sched.Policy) core.Config {
	cfg := core.DefaultConfig(pol)
	cfg.Mode = mode
	cfg.VRAM = opts.VRAM
	if mode == core.ModeGated {
		cfg.MaxBatch, cfg.BatchWindow = opts.MaxBatch, opts.BatchWindow
		if opts.Faults != nil {
			cfg.KernelTimeout = watchdogGrace
		}
	}
	return cfg
}

func (s *paellaSystem) Name() string { return s.name }

func (s *paellaSystem) Setup(env *sim.Env, opts Options, numClients int) error {
	s.env = env
	var pol sched.Policy
	if s.policy != nil {
		pol = s.policy()
	}
	cfg := dispatcherConfig(opts, s.mode, pol)
	if s.tweak != nil {
		s.tweak(&cfg)
	}
	s.disp = core.NewWithDevice(env, opts.DevCfg, cfg)
	// Register in deployment order: with a VRAM budget, registration order
	// seeds the residency manager's tiebreaks.
	for _, m := range opts.Models {
		ins, err := compiler.Compile(m, opts.CompilerCfg, opts.DevCfg, max(opts.ProfileRuns, 1))
		if err != nil {
			return err
		}
		if err := s.disp.RegisterModel(ins); err != nil {
			return err
		}
	}
	s.conns = make([]*core.ClientConn, numClients)
	for i := range s.conns {
		s.conns[i] = s.disp.Connect()
	}
	s.nextID = 0
	s.disp.Start()
	if opts.Faults != nil && s.mode == core.ModeGated {
		inj, err := fault.NewInjector(env, opts.Faults, fault.Targets{
			Device:     s.disp.Device(),
			Dispatcher: s.disp,
			Conns:      s.conns,
		})
		if err != nil {
			return err
		}
		inj.Install()
		s.injector = inj
	}
	return nil
}

// Injector returns the run's fault injector, or nil when Options.Faults
// was unset.
func (s *paellaSystem) Injector() *fault.Injector { return s.injector }

// Submit numbers the request and stamps its arrival once; a full ring
// retries the same request after the client library's backoff, so the
// wait shows in its JCT.
func (s *paellaSystem) Submit(req workload.Request) {
	s.nextID++
	s.send(core.Request{ID: s.nextID, Model: req.Model, Client: req.Client,
		Tenant: req.Tenant, Submit: s.env.Now()})
}

func (s *paellaSystem) send(req core.Request) {
	if !s.conns[req.Client].Submit(req) {
		s.env.After(core.RetryBackoff, func() { s.send(req) })
	}
}

func (s *paellaSystem) Collector() *metrics.Collector { return s.disp.Collector() }

// Dispatcher exposes the underlying dispatcher for experiment
// introspection (GPU stats, etc.).
func (s *paellaSystem) Dispatcher() *core.Dispatcher { return s.disp }
