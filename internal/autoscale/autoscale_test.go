package autoscale_test

import (
	"math"
	"reflect"
	"testing"

	"paella/internal/autoscale"
	"paella/internal/cluster"
	"paella/internal/compiler"
	"paella/internal/core"
	"paella/internal/gateway"
	"paella/internal/gpu"
	"paella/internal/sched"
	"paella/internal/sim"
	"paella/internal/telemetry"
	"paella/internal/vram"
)

// scriptPolicy replays a fixed target sequence, then holds the last value
// — the unit tests' way of steering the scaler deterministically.
type scriptPolicy struct {
	targets []int
	i       int
}

func (p *scriptPolicy) Name() string { return "script" }

func (p *scriptPolicy) Target(autoscale.Signals) int {
	if p.i < len(p.targets) {
		v := p.targets[p.i]
		p.i++
		return v
	}
	return p.targets[len(p.targets)-1]
}

// newUnitCluster builds a 2×T4 single-timeline cluster with VRAM budgets
// and one 8 MiB model, the fixture for the mechanics tests.
func newUnitCluster(t *testing.T, env *sim.Env) *cluster.Cluster {
	t.Helper()
	devs := []gpu.Config{gpu.TeslaT4(), gpu.TeslaT4()}
	c, err := cluster.NewWithConfig(env, devs, func(int, gpu.Config) core.Config {
		cfg := core.DefaultConfig(sched.NewPaella(10000))
		cfg.VRAM = &vram.Config{CapacityBytes: 32 << 20}
		return cfg
	}, gateway.NewLeastLoaded())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterModel(autoscaleModel("autonet-a", 400, 8), compiler.DefaultConfig(), 1); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestScalerColdStartThenDrain walks one replica through the full
// lifecycle: parked → warming (paying a real PCIe transfer) → active →
// draining → parked again with weights evicted and billing closed.
func TestScalerColdStartThenDrain(t *testing.T) {
	env := sim.NewEnv()
	c := newUnitCluster(t, env)
	pol := &scriptPolicy{targets: []int{2, 2, 1, 1, 1}}
	s, err := autoscale.NewScaler(env, c, autoscale.Config{
		Min: 1, Max: 2, Initial: 1,
		Interval:       sim.Millisecond,
		Policy:         pol,
		DollarsPerHour: []float64{1.0, 1.0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.State(0); got != autoscale.ReplicaActive {
		t.Fatalf("initial replica state %s", got)
	}
	if got := s.State(1); got != autoscale.ReplicaParked {
		t.Fatalf("spare replica state %s", got)
	}
	if c.Routable(1) {
		t.Fatal("parked replica still routable")
	}

	s.Start()
	// Just after the first tick the spare must be warming, not routable.
	env.RunUntil(sim.Millisecond + 10*sim.Microsecond)
	if got := s.State(1); got != autoscale.ReplicaWarming {
		t.Fatalf("state after scale-up tick: %s", got)
	}
	if c.Routable(1) {
		t.Fatal("warming replica routable before its weights landed")
	}

	// 8 MiB over the PCIe link lands well before the next tick.
	env.RunUntil(2*sim.Millisecond - 10*sim.Microsecond)
	if got := s.State(1); got != autoscale.ReplicaActive {
		t.Fatalf("state after warmup: %s", got)
	}
	if !c.Routable(1) {
		t.Fatal("warmed replica not routable")
	}
	if !c.Dispatcher(1).ModelResident("autonet-a") {
		t.Fatal("warmup did not page the weights in")
	}
	st := s.ScaleStats()
	if st.ScaleUps != 1 || st.ColdStarts != 1 {
		t.Fatalf("cold-start stats: %+v", st)
	}
	if st.ColdStartBytes != 8<<20 {
		t.Fatalf("cold start paged %d bytes, want %d", st.ColdStartBytes, 8<<20)
	}
	if st.ColdStartNs <= 0 {
		t.Fatalf("cold start took %v", st.ColdStartNs)
	}

	// Tick 3 drops the target to 1: replica 1 (highest index) drains, and
	// with no in-flight work the following tick parks and evicts it.
	env.RunUntil(3*sim.Millisecond + 10*sim.Microsecond)
	if got := s.State(1); got != autoscale.ReplicaDraining {
		t.Fatalf("state after scale-down tick: %s", got)
	}
	if c.Routable(1) {
		t.Fatal("draining replica still routable")
	}
	env.RunUntil(4*sim.Millisecond + 10*sim.Microsecond)
	if got := s.State(1); got != autoscale.ReplicaParked {
		t.Fatalf("state after drain completion: %s", got)
	}
	if c.Dispatcher(1).VRAM().Resident("autonet-a") {
		t.Fatal("parked replica still holds weights")
	}
	st = s.ScaleStats()
	if st.ScaleDowns != 1 || st.Parks != 1 {
		t.Fatalf("drain stats: %+v", st)
	}

	// Billing: replica 0 runs the whole time; replica 1 only its
	// warming→draining window. Total is strictly between 1× and 2× the
	// elapsed virtual time.
	env.RunUntil(10 * sim.Millisecond)
	now := env.Now()
	sec := s.ReplicaSeconds(now)
	if sec <= now.Seconds() || sec >= 2*now.Seconds() {
		t.Fatalf("billed %.6fs over %.6fs elapsed", sec, now.Seconds())
	}
	if cost := s.Cost(now); cost <= 0 {
		t.Fatalf("cost %.9f with non-zero prices", cost)
	}
	if ma := s.MeanActive(now); ma <= 1 || ma >= 2 {
		t.Fatalf("mean active %.3f outside (1, 2)", ma)
	}
}

// TestScalerReactivatesDrainingReplica: scale-up while a drain is pending
// must rescue the still-warm replica instead of paying a new cold start.
func TestScalerReactivatesDrainingReplica(t *testing.T) {
	env := sim.NewEnv()
	c := newUnitCluster(t, env)
	// A ~3ms inference keeps the drain in flight across two control ticks.
	if err := c.RegisterModel(autoscaleModel("autonet-slow", 3000, 4), compiler.DefaultConfig(), 1); err != nil {
		t.Fatal(err)
	}
	// Up to 2, down to 1, straight back to 2: the third move lands while
	// replica 1 is draining (a request keeps it busy across the tick).
	pol := &scriptPolicy{targets: []int{2, 2, 1, 2, 2}}
	s, err := autoscale.NewScaler(env, c, autoscale.Config{
		Min: 1, Max: 2, Initial: 1,
		Interval: sim.Millisecond,
		Policy:   pol,
	})
	if err != nil {
		t.Fatal(err)
	}
	front := autoscale.NewFront(s)
	s.Start()
	// Park a long-ish request on replica 1 right after it warms so the
	// drain cannot complete before the reactivation tick.
	env.At(2*sim.Millisecond+200*sim.Microsecond, func() {
		c.SetRoutable(0, false) // steer the request onto replica 1
		front.Submit(core.Request{ID: 1, Model: "autonet-slow", Submit: env.Now()})
		c.SetRoutable(0, true)
	})
	env.RunUntil(4*sim.Millisecond + 10*sim.Microsecond)
	if got := s.State(1); got != autoscale.ReplicaActive {
		t.Fatalf("state after reactivation tick: %s", got)
	}
	st := s.ScaleStats()
	if st.Reactivations != 1 {
		t.Fatalf("reactivation stats: %+v", st)
	}
	if st.ColdStarts != 1 {
		t.Fatalf("reactivation must not pay a second cold start: %+v", st)
	}
	env.RunUntil(20 * sim.Millisecond)
	if !front.Counts().Conserved() || front.Counts().Completed != 1 {
		t.Fatalf("request lost across the drain/reactivate cycle: %+v", front.Counts())
	}
}

// TestFrontRetriesWhileUnroutable: with every replica drained out of
// routing, Submit must park the request on the retry loop and deliver it
// once capacity returns — one submission, one completion.
func TestFrontRetriesWhileUnroutable(t *testing.T) {
	env := sim.NewEnv()
	c := newUnitCluster(t, env)
	s, err := autoscale.NewScaler(env, c, autoscale.Config{
		Min: 1, Max: 2,
		Interval: sim.Millisecond,
		Policy:   &scriptPolicy{targets: []int{1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	front := autoscale.NewFront(s)
	env.At(100*sim.Microsecond, func() {
		c.SetRoutable(0, false) // nothing routable now
		front.Submit(core.Request{ID: 7, Model: "autonet-a", Submit: env.Now()})
	})
	env.At(sim.Millisecond, func() { c.SetRoutable(0, true) })
	env.RunUntil(20 * sim.Millisecond)
	counts := front.Counts()
	if counts.Submitted != 1 || counts.Completed != 1 {
		t.Fatalf("retry loop lost the request: %+v", counts)
	}
	if front.Outstanding() != 0 {
		t.Fatal("request never left the outstanding map")
	}
}

// TestScalerAttainment checks the SLO attainment statistic fed through
// ObserveTerminal: completions within the deadline attain, everything
// else burns budget.
func TestScalerAttainment(t *testing.T) {
	env := sim.NewEnv()
	c := newUnitCluster(t, env)
	s, err := autoscale.NewScaler(env, c, autoscale.Config{
		Min: 1, Max: 2,
		Policy: &scriptPolicy{targets: []int{1}},
		SLO: telemetry.SLOConfig{
			Name: "jct@5ms", Deadline: 5 * sim.Millisecond, Target: 0.9,
			Short: sim.Millisecond, Long: 10 * sim.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Attainment(); got != 1 {
		t.Fatalf("attainment before traffic: %f", got)
	}
	s.ObserveTerminal(2*sim.Millisecond, autoscale.OutcomeCompleted)  // good
	s.ObserveTerminal(20*sim.Millisecond, autoscale.OutcomeCompleted) // late
	s.ObserveTerminal(sim.Millisecond, autoscale.OutcomeShed)         // burns
	s.ObserveTerminal(sim.Millisecond, autoscale.OutcomeFailed)       // burns
	if got := s.Attainment(); got != 0.25 {
		t.Fatalf("attainment %f, want 0.25", got)
	}
}

// TestScalerConfigValidation walks the constructor's rejection table.
func TestScalerConfigValidation(t *testing.T) {
	env := sim.NewEnv()
	c := newUnitCluster(t, env)
	pol := &scriptPolicy{targets: []int{1}}
	bad := []autoscale.Config{
		{Min: 1, Max: 2},                                            // nil policy
		{Min: 0, Max: 2, Policy: pol},                               // min < 1
		{Min: 1, Max: 5, Policy: pol},                               // max > cluster size
		{Min: 2, Max: 1, Policy: pol},                               // min > max
		{Min: 1, Max: 2, Initial: 4, Policy: pol},                   // initial > max
		{Min: 1, Max: 2, Policy: pol, DollarsPerHour: []float64{1}}, // wrong price count
	}
	for i, cfg := range bad {
		if _, err := autoscale.NewScaler(env, c, cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	if _, err := autoscale.NewScaler(env, c, autoscale.Config{Min: 1, Max: 2, Policy: pol}); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

// TestPolicyRegistry checks the registry surface: the five shipped
// policies under their sorted names, and rejection of unknown ones.
func TestPolicyRegistry(t *testing.T) {
	want := []string{"predictive", "queue-depth", "slo-burn", "static", "step"}
	if got := autoscale.Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("registry names %v, want %v", got, want)
	}
	for _, name := range want {
		p, err := autoscale.New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Fatalf("policy %q reports name %q", name, p.Name())
		}
	}
	if _, err := autoscale.New("oracle"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// TestQueueDepthPolicy checks the hysteresis band: hold inside, jump to
// the midpoint-restoring size outside.
func TestQueueDepthPolicy(t *testing.T) {
	p, err := autoscale.New("queue-depth")
	if err != nil {
		t.Fatal(err)
	}
	hold := autoscale.Signals{Active: 2, Target: 2, InFlight: 10} // 5/replica in [2, 8]
	if got := p.Target(hold); got != 2 {
		t.Fatalf("in-band target %d, want hold 2", got)
	}
	// 40 in flight on 2 replicas: 20/replica > 8 → ceil(40/5) = 8.
	spike := autoscale.Signals{Active: 2, Target: 2, InFlight: 40}
	if got := p.Target(spike); got != 8 {
		t.Fatalf("overload target %d, want 8", got)
	}
	// 1 in flight on 4 replicas: 0.25 < 2 → ceil(1/5) = 1.
	idle := autoscale.Signals{Active: 4, Target: 4, InFlight: 1}
	if got := p.Target(idle); got != 1 {
		t.Fatalf("idle target %d, want 1", got)
	}
}

// TestStepPolicy checks the ±1 variant never moves more than one replica.
func TestStepPolicy(t *testing.T) {
	p, err := autoscale.New("step")
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Target(autoscale.Signals{Active: 2, Target: 2, InFlight: 40}); got != 3 {
		t.Fatalf("step up target %d, want 3", got)
	}
	if got := p.Target(autoscale.Signals{Active: 4, Target: 4, InFlight: 1}); got != 3 {
		t.Fatalf("step down target %d, want 3", got)
	}
	if got := p.Target(autoscale.Signals{Active: 2, Target: 2, InFlight: 10}); got != 2 {
		t.Fatalf("in-band target %d, want hold 2", got)
	}
}

// TestSLOBurnPolicy checks the asymmetric shape: grow half-again while
// firing, release one only after ten consecutive quiet ticks.
func TestSLOBurnPolicy(t *testing.T) {
	p, err := autoscale.New("slo-burn")
	if err != nil {
		t.Fatal(err)
	}
	firing := autoscale.Signals{Active: 4, Target: 4, SLOFiring: true}
	if got := p.Target(firing); got != 6 {
		t.Fatalf("firing target %d, want 6", got)
	}
	quiet := autoscale.Signals{Active: 4, Target: 4}
	for tick := 1; tick < 10; tick++ {
		if got := p.Target(quiet); got != 4 {
			t.Fatalf("quiet tick %d target %d, want hold 4", tick, got)
		}
	}
	if got := p.Target(quiet); got != 3 {
		t.Fatalf("quiet tick 10 target %d, want release to 3", got)
	}
	// A fresh burn resets the quiet counter.
	if got := p.Target(firing); got != 6 {
		t.Fatalf("re-fire target %d, want 6", got)
	}
	if got := p.Target(quiet); got != 4 {
		t.Fatalf("post-fire quiet target %d, want hold", got)
	}
}

// TestPredictivePolicy checks the trend-following forecast: a rising
// arrival ramp must provision ahead of the instantaneous demand.
func TestPredictivePolicy(t *testing.T) {
	p, err := autoscale.New("predictive")
	if err != nil {
		t.Fatal(err)
	}
	// No capacity estimate yet: hold.
	if got := p.Target(autoscale.Signals{Target: 2, ArrivalRate: 1000}); got != 2 {
		t.Fatalf("no-estimate target %d, want hold 2", got)
	}
	// Steady 1000 req/s at 600 req/s/replica with 1.25 headroom → ~3.
	var got int
	for i := 0; i < 10; i++ {
		got = p.Target(autoscale.Signals{Target: 2, ArrivalRate: 1000, ReplicaRate: 600})
	}
	if got != 3 {
		t.Fatalf("steady target %d, want 3", got)
	}
	// A ramp must forecast above the steady answer for the same rate.
	ramp, err := autoscale.New("predictive")
	if err != nil {
		t.Fatal(err)
	}
	rate := 200.0
	for i := 0; i < 10; i++ {
		got = ramp.Target(autoscale.Signals{Target: 2, ArrivalRate: rate, ReplicaRate: 600})
		rate += 300
	}
	steady := (rate - 300 + 600 - 1) / 600 // ceil(instantaneous/rate) without headroom
	if got <= int(steady) {
		t.Fatalf("ramp target %d not ahead of instantaneous need %d", got, int(steady))
	}
}

// TestOptimizeMix checks the greedy fleet-mix optimizer: efficiency
// ordering, per-offer caps, and the error cases.
func TestOptimizeMix(t *testing.T) {
	offers := []autoscale.Offer{
		{Name: "t4", Dev: gpu.TeslaT4(), DollarsPerHour: 0.53, RatePerSec: 2000},
		{Name: "p100", Dev: gpu.TeslaP100(), DollarsPerHour: 1.46, RatePerSec: 3000},
		{Name: "gtx1660", Dev: gpu.GTX1660Super(), DollarsPerHour: 0.25, RatePerSec: 900},
	}
	// Efficiency $/req/s: t4 2.65e-4 < gtx 2.78e-4 < p100 4.87e-4.
	mix, err := autoscale.OptimizeMix(offers, 10000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mix.Counts, []int{5, 0, 0}) {
		t.Fatalf("mix %v, want all-T4", mix.Counts)
	}
	if mix.RatePerSec < 10000 || math.Abs(mix.CostPerHour-5*0.53) > 1e-9 {
		t.Fatalf("mix capacity %.0f cost %.2f", mix.RatePerSec, mix.CostPerHour)
	}

	// Cap the efficient type: the spill goes to the next-best offer.
	offers[0].Max = 2
	mix, err = autoscale.OptimizeMix(offers, 10000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if mix.Counts[0] != 2 || mix.Counts[2] == 0 {
		t.Fatalf("capped mix %v, want T4 capped at 2 with GTX spill", mix.Counts)
	}
	if mix.RatePerSec < 10000 {
		t.Fatalf("capped mix undershoots: %.0f", mix.RatePerSec)
	}

	// Devices expansion matches the counts, in offer order.
	devs, prices, names := mix.Devices(offers)
	replicas := 0
	for _, c := range mix.Counts {
		replicas += c
	}
	if len(devs) != replicas || len(prices) != len(devs) || len(names) != len(devs) {
		t.Fatalf("expansion lengths %d/%d/%d for %d replicas", len(devs), len(prices), len(names), replicas)
	}
	if names[0] != "t4" || prices[0] != 0.53 {
		t.Fatalf("expansion order wrong: %v %v", names, prices)
	}

	// Error cases: no offers, bad demand, unsatisfiable caps.
	if _, err := autoscale.OptimizeMix(nil, 1000, 1); err == nil {
		t.Error("no offers accepted")
	}
	if _, err := autoscale.OptimizeMix(offers, 0, 1); err == nil {
		t.Error("zero demand accepted")
	}
	for i := range offers {
		offers[i].Max = 1
	}
	if _, err := autoscale.OptimizeMix(offers, 100000, 1); err == nil {
		t.Error("unsatisfiable demand accepted")
	}
}
