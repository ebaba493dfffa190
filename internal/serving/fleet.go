package serving

import (
	"paella/internal/cluster"
	"paella/internal/core"
	"paella/internal/gateway"
	"paella/internal/gpu"
	"paella/internal/sched"
	"paella/internal/sim"
	"paella/internal/workload"
)

// Fleet is a set of gated-Paella replicas behind one gateway, built from
// Options: each replica's dispatcher is configured as the single-GPU
// "Paella" system would be, and every model is registered on every
// replica.
type Fleet struct {
	*cluster.Cluster
	executor
}

// NewFleet builds the fleet on opts.Devices behind opts.Gateway, on
// opts.World when set, and registers opts.Models on every replica.
// Options.Trace and Telemetry observe the control Env; MaxSimTime is not
// consumed: run with RunUntil.
func NewFleet(opts Options) (*Fleet, error) {
	mkCfg := func(int, gpu.Config) core.Config {
		return dispatcherConfig(opts, core.ModeGated, sched.NewPaella(DefaultFairnessThreshold))
	}
	pol := gateway.NewLeastLoaded
	if opts.Gateway != nil {
		pol = opts.Gateway
	}
	f := &Fleet{executor: newExecutor(opts)}
	var err error
	if opts.World != nil {
		f.Cluster, err = cluster.NewWorldWithConfig(opts.World, opts.Devices, mkCfg, pol(), opts.ShardSetup)
	} else {
		f.Cluster, err = cluster.NewWithConfig(f.ctrl, opts.Devices, mkCfg, pol())
	}
	if err != nil {
		return nil, err
	}
	for _, m := range opts.Models {
		if err := f.RegisterModel(m, opts.CompilerCfg, max(opts.ProfileRuns, 1)); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// Arrive schedules every request of trace on the control Env at its
// arrival time, as core.Request i+1 with the request's model, client and
// tenant. submit delivers it: a cluster.Conn's Submit, or an
// autoscale.Front's wrapped to return 0 (the Front retries by itself). A
// -1 result (a full ring, or no routable replica) is retried after
// core.RetryBackoff with the request unchanged, so the wait shows in its
// JCT. Any other result is final: cluster.Failed means the request already
// failed, shed by admission or with no replica alive.
func (f *Fleet) Arrive(trace []workload.Request, submit func(core.Request) int) {
	var send func(req core.Request)
	send = func(req core.Request) {
		if submit(req) == -1 {
			f.ctrl.After(core.RetryBackoff, func() { send(req) })
		}
	}
	for i, r := range trace {
		req := core.Request{ID: uint64(i + 1), Model: r.Model, Client: r.Client,
			Tenant: r.Tenant, Submit: r.At}
		f.ctrl.At(r.At, func() { send(req) })
	}
}

// executor is the engine a deployment runs on: one serial Env, or a
// World and its control Env.
type executor struct {
	ctrl  *sim.Env
	world *sim.World
}

// newExecutor runs on opts.World when it is set, else on a fresh Env,
// with opts.Trace and opts.Telemetry observing the control Env.
func newExecutor(opts Options) executor {
	if w := opts.World; w != nil {
		return executor{ctrl: observed(w.Ctrl(), opts), world: w}
	}
	return executor{ctrl: observed(sim.NewEnv(), opts)}
}

// Env returns the control Env: the deployment's one Env, or its World's
// control Env. Crash timers, fault injectors and autoscalers schedule
// here.
func (e executor) Env() *sim.Env { return e.ctrl }

// RunUntil runs the deployment's engine up to virtual time t.
func (e executor) RunUntil(t sim.Time) {
	if e.world != nil {
		e.world.RunUntil(t)
		return
	}
	e.ctrl.RunUntil(t)
}
