package main

import (
	"fmt"
	"math"

	"paella/internal/autoscale"
	"paella/internal/cluster"
	"paella/internal/compiler"
	"paella/internal/core"
	"paella/internal/gateway"
	"paella/internal/gpu"
	"paella/internal/llm"
	"paella/internal/metrics"
	"paella/internal/model"
	"paella/internal/sched"
	"paella/internal/serving"
	"paella/internal/sim"
	"paella/internal/telemetry"
	"paella/internal/vram"
	"paella/internal/workload"
)

// inputs is one workload's generated arrivals: request i (ID i+1) arrives
// at At[i] carrying Model, Client and, for generative requests, Tokens.
type inputs struct {
	At     []sim.Time
	Model  []string
	Client []int
	Tokens []workload.Tokens
	// Span is the offered trace's virtual duration (cost extrapolation).
	Span sim.Time
}

func (in *inputs) n() int { return len(in.At) }

// system is one built serving system, driven through public APIs only.
type system struct {
	// ctrl is the Env arrivals are scheduled on; advance runs the whole
	// simulation (every shard) to a virtual time.
	ctrl    *sim.Env
	advance func(sim.Time)
	envs    []*sim.Env
	// submit injects request i at the current virtual time.
	submit func(i int)
	// terminated counts requests that reached a terminal outcome.
	terminated func() int
	collector  func() *metrics.Collector
	close      func()

	disps   []*core.Dispatcher
	engines []*llm.Engine
	scaler  *autoscale.Scaler
	front   *autoscale.Front
}

// spec describes one benchmark workload.
type spec struct {
	name string
	// slo is the latency limit behind slo_attain: on JCT, or on time to
	// first token when sloOnTTFT is set.
	slo       sim.Time
	sloOnTTFT bool
	// perSecond is how many requests one --seconds second buys: sized so
	// the timed phase lasts about --seconds on the reference box. Only the
	// request count scales with --seconds.
	perSecond int
	// slices is how many equal virtual-time slices the arrival span is cut
	// into; a calibration call follows each (and each drain slice after it).
	slices int
	// sharded marks systems whose replicas run on concurrent World shards.
	sharded  bool
	generate func(seed int64, n int) (*inputs, error)
	build    func(in *inputs, tr *tracers) (*system, error)
}

var workloads = []spec{
	// The event engine and GPU block model do almost all the work while
	// queues stay shallow: engine and GPU changes show here.
	{
		name:      "dnn-fleet",
		slo:       10 * sim.Millisecond,
		perSecond: 1000,
		slices:    32,
		generate:  func(seed int64, n int) (*inputs, error) { return dnnArrivals(seed, n, 3200) },
		build:     buildFleet,
	},
	// The same layers in deep-queue, widened-kernel mode: thousands of
	// queued jobs make the sched trees, batch formation and dispatcher
	// dominate. The one saturated workload.
	{
		name:      "dnn-batch",
		slo:       100 * sim.Millisecond,
		perSecond: 1300,
		slices:    10,
		generate:  func(seed int64, n int) (*inputs, error) { return dnnArrivals(seed, n, 8000) },
		build:     buildBatch,
	},
	// Few GPU events and no core dispatcher: llm iteration and vram KV-page
	// accounting dominate, which the DNN workloads never touch.
	{
		name:      "llm-colocated",
		slo:       200 * sim.Millisecond,
		sloOnTTFT: true,
		perSecond: 17000,
		slices:    32,
		generate:  llmArrivals,
		build:     buildLLM,
	},
	// The only workload that crosses shards (World barriers, ctrl↔shard
	// posts) and pays cold starts, paging weights over PCIe.
	{
		name:      "autoscale-diurnal",
		slo:       5 * sim.Millisecond,
		perSecond: 12000,
		slices:    32,
		sharded:   true,
		generate:  diurnalArrivals,
		build:     buildAutoscale,
	},
}

func workloadByName(name string) (*spec, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// Seeds: the arrival generator and the token sampler draw from distinct
// streams derived from the one -seed.
func arrivalSeed(seed int64) int64 { return 2 * seed }
func tokenSeed(seed int64) int64   { return 2*seed + 1 }

func zooNames(models []*model.Model) []string {
	names := make([]string, len(models))
	for i, m := range models {
		names[i] = m.Name
	}
	return names
}

// fromRequests copies generated requests into inputs, pinning the trace's
// mean rate to exactly rate. σ=2 lognormal gaps have a coefficient of
// variation near 7.3, so a 10,000-request trace's realised rate moves about
// ±7 % from seed to seed; rescaling arrival times keeps offered load a
// constant of the workload and leaves the seed to place bursts, models and
// clients.
func fromRequests(reqs []workload.Request, rate float64) *inputs {
	n := len(reqs)
	want := float64(n) / rate * float64(sim.Second)
	scale := want / float64(reqs[n-1].At)
	in := &inputs{At: make([]sim.Time, n), Model: make([]string, n), Client: make([]int, n)}
	for i, r := range reqs {
		in.At[i] = sim.Time(math.Round(float64(r.At) * scale))
		in.Model[i] = r.Model
		in.Client[i] = r.Client
	}
	in.Span = in.At[n-1]
	return in
}

// dnnArrivals is the DNN workloads' open loop: zipf(1.1) over
// SyntheticZoo(8), σ=2 lognormal gaps, 8 clients.
func dnnArrivals(seed int64, n int, rate float64) (*inputs, error) {
	reqs, err := workload.Generate(workload.Spec{
		Mix: workload.ZipfMix(zooNames(model.SyntheticZoo(8)), 1.1), Sigma: 2,
		RatePerSec: rate, Jobs: n, Clients: 8, Seed: arrivalSeed(seed),
	})
	if err != nil {
		return nil, err
	}
	return fromRequests(reqs, rate), nil
}

func llmArrivals(seed int64, n int) (*inputs, error) {
	const rate = 2400
	reqs, err := workload.Generate(workload.Spec{
		Mix: workload.Uniform(llm.DefaultSpec().Name), Sigma: 2,
		RatePerSec: rate, Jobs: n, Clients: 8, Seed: arrivalSeed(seed),
	})
	if err != nil {
		return nil, err
	}
	in := fromRequests(reqs, rate)
	in.Tokens, err = workload.SampleTokens(workload.DefaultTokenSpec(tokenSeed(seed)), n)
	return in, err
}

// diurnal traffic: 20,000 req/s ±80 % over a 200 ms period. The trace runs
// for whole periods, so n sets the number of days, not a mid-day cut-off.
const (
	diurnalBase   = 20000
	diurnalPeriod = 200 * sim.Millisecond
)

func diurnalArrivals(seed int64, n int) (*inputs, error) {
	days := int(math.Round(float64(n) / diurnalBase / diurnalPeriod.Seconds()))
	if days < 1 {
		days = 1
	}
	dur := sim.Time(days) * diurnalPeriod
	reqs, err := workload.GenerateTraffic(workload.TrafficSpec{
		Shape: workload.ShapeDiurnal, Mix: workload.Uniform("autonet-a", "autonet-b"),
		Sigma: 1, BaseRatePerSec: diurnalBase, Amplitude: 0.8, Period: diurnalPeriod,
		Duration: dur, Clients: 2_000_000, Seed: arrivalSeed(seed),
	})
	if err != nil {
		return nil, err
	}
	in := &inputs{Span: dur}
	for _, r := range reqs {
		in.At = append(in.At, r.At)
		in.Model = append(in.Model, r.Model)
		in.Client = append(in.Client, r.Client)
	}
	return in, nil
}

func fourT4() []gpu.Config {
	return []gpu.Config{gpu.TeslaT4(), gpu.TeslaT4(), gpu.TeslaT4(), gpu.TeslaT4()}
}

// singleEnv fills the Env-driven fields shared by the single-timeline
// systems.
func singleEnv(env *sim.Env) *system {
	return &system{
		ctrl:    env,
		advance: env.RunUntil,
		envs:    []*sim.Env{env},
		close:   func() {},
	}
}

func buildFleet(in *inputs, tr *tracers) (*system, error) {
	env := sim.NewEnv()
	c, err := cluster.New(env, fourT4(), func() sched.Policy {
		return tr.sched(0, sched.NewPaella(serving.DefaultFairnessThreshold))
	}, tr.gateway(gateway.NewLeastLoaded()))
	if err != nil {
		return nil, err
	}
	for _, m := range model.SyntheticZoo(8) {
		if err := c.RegisterModel(m, compiler.DefaultConfig(), 1); err != nil {
			return nil, err
		}
	}
	s := singleEnv(env)
	for i := 0; i < c.Size(); i++ {
		s.disps = append(s.disps, c.Dispatcher(i))
	}
	conn := c.Connect()
	done := 0
	conn.OnComplete = func(uint64) { done++ }
	conn.OnFailed = func(uint64, error) { done++ }
	s.submit = func(i int) {
		conn.Submit(core.Request{ID: uint64(i + 1), Model: in.Model[i], Client: in.Client[i], Submit: env.Now()})
	}
	s.terminated = func() int { return done }
	s.collector = c.Collector
	return s, nil
}

func buildBatch(in *inputs, tr *tracers) (*system, error) {
	env := sim.NewEnv()
	sys := serving.NewPaellaTweaked("Paella-batch", func(cfg *core.Config) {
		cfg.MaxBatch = serving.DefaultMaxBatch
		cfg.BatchWindow = serving.DefaultBatchWindow
		cfg.Policy = tr.sched(0, cfg.Policy)
	})
	opts := serving.DefaultOptions()
	opts.Models = model.SyntheticZoo(8)
	opts.ProfileRuns = 1
	if err := sys.Setup(env, opts, 8); err != nil {
		return nil, err
	}
	disp := sys.(interface{ Dispatcher() *core.Dispatcher }).Dispatcher()
	s := singleEnv(env)
	s.disps = []*core.Dispatcher{disp}
	// The serving system numbers requests itself, 1, 2, … in submission
	// order, which matches the benchmark's IDs unless a ring-full retry
	// renumbers one — the conservation check would then fail.
	s.submit = func(i int) {
		sys.Submit(workload.Request{At: in.At[i], Model: in.Model[i], Client: in.Client[i]})
	}
	s.terminated = disp.Collector().Len
	s.collector = sys.Collector
	return s, nil
}

// llmKVBudget caps each engine's KV-page pool, so paging and preemption
// happen at a moderate load.
const llmKVBudget = 256 << 20

func buildLLM(in *inputs, tr *tracers) (*system, error) {
	env := sim.NewEnv()
	spec := llm.DefaultSpec()
	pd, err := cluster.NewPD(env, cluster.PDConfig{
		LLM: llm.Config{
			Spec: spec, DevCfg: gpu.TeslaT4(), VRAMBytes: spec.WeightBytes + llmKVBudget,
			MaxBatch: 16, Continuous: true,
		},
		Prefills:   2,
		MakePolicy: func() gateway.Policy { return tr.gateway(gateway.NewPredictedLatency()) },
	})
	if err != nil {
		return nil, err
	}
	s := singleEnv(env)
	for i := 0; i < pd.Size(); i++ {
		s.engines = append(s.engines, pd.Engine(i))
	}
	done := 0
	pd.OnFinish = func(metrics.JobRecord) { done++ }
	s.submit = func(i int) {
		pd.Submit(llm.Request{
			ID: uint64(i + 1), Client: in.Client[i], Submit: env.Now(),
			Prompt: in.Tokens[i].Prompt, Output: in.Tokens[i].Output,
		})
	}
	s.terminated = func() int { return done }
	s.collector = pd.Collector
	return s, nil
}

// autoscaleModels are the autoscale experiment's two sub-millisecond
// models with megabyte weights, so cold starts page real bytes.
func autoscaleModels() []*model.Model {
	mk := func(name string, exec sim.Time, weightMiB int) *model.Model {
		return model.Generate(model.ZooEntry{
			Name: name, ExecTime: exec, Executions: 6, Unique: 3,
			InputBytes: 4096, OutputBytes: 4096, WeightBytes: weightMiB << 20,
		})
	}
	return []*model.Model{mk("autonet-a", 400*sim.Microsecond, 8), mk("autonet-b", 300*sim.Microsecond, 6)}
}

// t4DollarsPerHour is the on-demand T4 price the cost metric bills at.
const t4DollarsPerHour = 0.53

func buildAutoscale(in *inputs, tr *tracers) (*system, error) {
	w := sim.NewWorld()
	w.SetParallel(true)
	devs := fourT4()
	c, err := cluster.NewWorldWithConfig(w, devs, func(i int, _ gpu.Config) core.Config {
		cfg := core.DefaultConfig(tr.sched(i, sched.NewPaella(serving.DefaultFairnessThreshold)))
		cfg.VRAM = &vram.Config{CapacityBytes: 32 << 20}
		return cfg
	}, tr.gateway(gateway.NewLeastLoaded()), nil)
	if err != nil {
		w.Close()
		return nil, err
	}
	for _, m := range autoscaleModels() {
		if err := c.RegisterModel(m, compiler.DefaultConfig(), 1); err != nil {
			w.Close()
			return nil, err
		}
	}
	pol, err := autoscale.New("queue-depth")
	if err != nil {
		w.Close()
		return nil, err
	}
	prices := make([]float64, len(devs))
	for i := range prices {
		prices[i] = t4DollarsPerHour
	}
	sc, err := autoscale.NewScaler(w.Ctrl(), c, autoscale.Config{
		Min: 1, Max: len(devs), Initial: 1, Interval: 5 * sim.Millisecond,
		Policy: tr.autoscale(pol),
		SLO: telemetry.SLOConfig{
			Name: "jct@5ms", Deadline: 5 * sim.Millisecond, Target: 0.9,
			Short: sim.Millisecond, Long: 10 * sim.Millisecond,
		},
		DollarsPerHour: prices,
	})
	if err != nil {
		w.Close()
		return nil, err
	}
	front := autoscale.NewFront(sc)
	sc.Start()
	s := &system{
		ctrl:    w.Ctrl(),
		advance: w.RunUntil,
		envs:    []*sim.Env{w.Ctrl()},
		close:   w.Close,
		scaler:  sc,
		front:   front,
	}
	for i := 0; i < w.NumShards(); i++ {
		s.envs = append(s.envs, w.Shard(i))
	}
	for i := 0; i < c.Size(); i++ {
		s.disps = append(s.disps, c.Dispatcher(i))
	}
	s.submit = func(i int) {
		front.Submit(core.Request{ID: uint64(i + 1), Model: in.Model[i], Client: in.Client[i], Submit: w.Ctrl().Now()})
	}
	s.terminated = func() int {
		n := front.Counts()
		return n.Completed + n.Shed + n.Failed
	}
	s.collector = c.Collector
	return s, nil
}
