package cluster

import (
	"testing"

	"paella/internal/compiler"
	"paella/internal/core"
	"paella/internal/gateway"
	"paella/internal/gpu"
	"paella/internal/model"
	"paella/internal/sched"
	"paella/internal/sim"
	"paella/internal/vram"
)

func mkCluster(t *testing.T, b gateway.Policy, devs ...gpu.Config) (*sim.Env, *Cluster) {
	t.Helper()
	env := sim.NewEnv()
	if len(devs) == 0 {
		devs = []gpu.Config{gpu.TeslaT4(), gpu.TeslaT4()}
	}
	c, err := New(env, devs, func() sched.Policy { return sched.NewPaella(10000) }, b)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterModel(model.TinyNet(), compiler.DefaultConfig(), 1); err != nil {
		t.Fatal(err)
	}
	return env, c
}

func TestClusterAllComplete(t *testing.T) {
	env, c := mkCluster(t, gateway.NewRoundRobin())
	conn := c.Connect()
	done := 0
	conn.OnComplete = func(uint64) { done++ }
	for i := 0; i < 40; i++ {
		id := uint64(i + 1)
		env.At(sim.Time(i)*20*sim.Microsecond, func() {
			conn.Submit(core.Request{ID: id, Model: "tinynet", Submit: env.Now()})
		})
	}
	env.Run()
	if done != 40 {
		t.Fatalf("completed %d of 40", done)
	}
	if c.Collector().Len() != 40 {
		t.Fatalf("merged collector has %d records", c.Collector().Len())
	}
}

func TestRoundRobinSpreads(t *testing.T) {
	env, c := mkCluster(t, gateway.NewRoundRobin())
	conn := c.Connect()
	counts := map[int]int{}
	for i := 0; i < 10; i++ {
		id := uint64(i + 1)
		env.At(0, func() {
			counts[conn.Submit(core.Request{ID: id, Model: "tinynet", Submit: 0})]++
		})
	}
	env.Run()
	if counts[0] != 5 || counts[1] != 5 {
		t.Fatalf("round robin spread = %v", counts)
	}
}

func TestLeastLoadedAvoidsBusyGPU(t *testing.T) {
	env, c := mkCluster(t, gateway.NewLeastLoaded())
	conn := c.Connect()
	// Pre-load GPU 0 through the balancer's own accounting.
	c.inflight[0] = 10
	picked := -1
	env.At(0, func() {
		picked = conn.Submit(core.Request{ID: 1, Model: "tinynet", Submit: 0})
	})
	env.Run()
	if picked != 1 {
		t.Fatalf("least-loaded picked GPU %d, want 1", picked)
	}
}

func TestLeastLoadedCapacityNormalized(t *testing.T) {
	// A big and a small GPU, equally idle: both are fine; load one job on
	// the big GPU — per-capacity load still favours the big one over a
	// tiny GPU with one job.
	big := gpu.TeslaT4() // 40 SMs
	small := gpu.TeslaT4()
	small.NumSMs = 4
	views := []gateway.Replica{
		{Index: 0, InFlight: 2, Capacity: big.NumSMs * big.SM.MaxThreads},
		{Index: 1, InFlight: 1, Capacity: small.NumSMs * small.SM.MaxThreads},
	}
	if got := gateway.NewLeastLoaded().Pick(gateway.Request{Model: "m"}, views); got != 0 {
		t.Fatalf("capacity-normalized pick = %d, want 0 (big GPU)", got)
	}
}

func TestModelAffinityStable(t *testing.T) {
	b := gateway.NewModelAffinity(100) // never spill
	views := []gateway.Replica{{Index: 0}, {Index: 1}, {Index: 2}}
	first := b.Pick(gateway.Request{Model: "resnet18"}, views)
	for i := 0; i < 5; i++ {
		if got := b.Pick(gateway.Request{Model: "resnet18"}, views); got != first {
			t.Fatalf("affinity not stable: %d then %d", first, got)
		}
	}
	// Different models should (for these names) not all land together.
	spread := map[int]bool{first: true}
	for _, m := range []string{"mobilenetv2", "inceptionv3", "densenet", "googlenet"} {
		spread[b.Pick(gateway.Request{Model: m}, views)] = true
	}
	if len(spread) < 2 {
		t.Fatal("affinity hashed every model to one GPU")
	}
}

func TestModelAffinitySpills(t *testing.T) {
	b := gateway.NewModelAffinity(1.5)
	views := []gateway.Replica{{Index: 0, InFlight: 0, Capacity: 1}, {Index: 1, InFlight: 0, Capacity: 1}}
	home := b.Pick(gateway.Request{Model: "resnet18"}, views)
	// Overload the home GPU: with spill factor 1.5 and average load 5,
	// home load 10 > 7.5 ⇒ spill to the other GPU.
	views[home].InFlight = 10
	views[1-home].InFlight = 0
	if got := b.Pick(gateway.Request{Model: "resnet18"}, views); got == home {
		t.Fatalf("affinity did not spill from overloaded home %d", home)
	}
}

func TestHeterogeneousCluster(t *testing.T) {
	env, c := mkCluster(t, gateway.NewLeastLoaded(), gpu.TeslaT4(), gpu.TeslaP100())
	conn := c.Connect()
	done := 0
	conn.OnComplete = func(uint64) { done++ }
	for i := 0; i < 20; i++ {
		id := uint64(i + 1)
		env.At(sim.Time(i)*50*sim.Microsecond, func() {
			conn.Submit(core.Request{ID: id, Model: "tinynet", Submit: env.Now()})
		})
	}
	env.Run()
	if done != 20 {
		t.Fatalf("completed %d of 20", done)
	}
}

func TestEmptyClusterRejected(t *testing.T) {
	env := sim.NewEnv()
	if _, err := New(env, nil, func() sched.Policy { return sched.NewFIFO() }, gateway.NewRoundRobin()); err == nil {
		t.Fatal("empty cluster constructed")
	}
}

// TestClusterScalesThroughput: two GPUs drain a saturating burst in about
// half the time one GPU takes.
func TestClusterScalesThroughput(t *testing.T) {
	run := func(devs ...gpu.Config) sim.Time {
		env := sim.NewEnv()
		c, err := New(env, devs, func() sched.Policy { return sched.NewPaella(10000) }, gateway.NewLeastLoaded())
		if err != nil {
			t.Fatal(err)
		}
		m := model.Generate(model.Table2()[4]) // resnet50
		if err := c.RegisterModel(m, compiler.DefaultConfig(), 1); err != nil {
			t.Fatal(err)
		}
		conn := c.Connect()
		var last sim.Time
		done := 0
		conn.OnComplete = func(uint64) { done++; last = env.Now() }
		const jobs = 60
		for i := 0; i < jobs; i++ {
			id := uint64(i + 1)
			env.At(0, func() {
				conn.Submit(core.Request{ID: id, Model: m.Name, Submit: 0})
			})
		}
		env.Run()
		if done != jobs {
			t.Fatalf("completed %d of %d", done, jobs)
		}
		return last
	}
	one := run(gpu.TeslaT4())
	two := run(gpu.TeslaT4(), gpu.TeslaT4())
	ratio := float64(one) / float64(two)
	if ratio < 1.6 || ratio > 2.4 {
		t.Fatalf("2-GPU speedup = %.2f×, want ≈2×", ratio)
	}
}

// TestModelAffinityHeterogeneousNormalized: the spill check compares
// capacity-normalized loads. A big GPU carrying more raw jobs than the
// cluster average — but proportionally to its size — must not trigger a
// spill, while a genuinely overloaded small home must.
func TestModelAffinityHeterogeneousNormalized(t *testing.T) {
	b := gateway.NewModelAffinity(1.5)
	views := []gateway.Replica{
		{Index: 0, Capacity: 10},
		{Index: 1, Capacity: 100},
	}
	home := b.Pick(gateway.Request{Model: "resnet18"}, views)

	// Load both GPUs to identical normalized load (0.4): raw counts differ
	// 10×, but neither is relatively overloaded, so the home sticks.
	views[0].InFlight = 4
	views[1].InFlight = 40
	if got := b.Pick(gateway.Request{Model: "resnet18"}, views); got != home {
		t.Fatalf("affinity spilled from proportionally-loaded home %d to %d", home, got)
	}

	// Now overload the home in normalized terms while keeping its raw
	// count below the other GPU's: only a normalized comparison spills.
	small, big := 0, 1
	if home == 1 {
		small, big = 1, 0
	}
	_ = small
	views[home].InFlight = views[home].Capacity // load 1.0
	views[big].InFlight = 0
	if home == 0 {
		// home is the small GPU: raw 10 vs 0 — both raw and normalized
		// comparisons would spill; make the other GPU raw-heavier so only
		// the normalized comparison does.
		views[1].InFlight = 20 // load 0.2
	}
	if got := b.Pick(gateway.Request{Model: "resnet18"}, views); got == home {
		t.Fatalf("affinity failed to spill from overloaded home %d (views %+v)", home, views)
	}
}

// TestResidencyAwarePickPrefersWarm: unit-level routing — warm beats cold
// regardless of load, loading beats cold, and the fallback handles
// all-cold.
func TestResidencyAwarePickPrefersWarm(t *testing.T) {
	b := gateway.NewResidencyAware(nil)
	views := []gateway.Replica{
		{Index: 0, InFlight: 9, Capacity: 10, Warm: true},
		{Index: 1, InFlight: 0, Capacity: 10},
	}
	if got := b.Pick(gateway.Request{Model: "m"}, views); got != 0 {
		t.Fatalf("picked cold idle GPU %d over warm busy one", got)
	}
	// Two warm replicas: normalized load breaks the tie.
	views[1].Warm = true
	if got := b.Pick(gateway.Request{Model: "m"}, views); got != 1 {
		t.Fatalf("picked busier warm replica %d", got)
	}
	// No warm copy, one loading: join the in-flight load.
	views[0].Warm, views[1].Warm = false, false
	views[0].Loading = true
	if got := b.Pick(gateway.Request{Model: "m"}, views); got != 0 {
		t.Fatalf("did not join in-flight load, picked %d", got)
	}
	// All cold: fall back to least-loaded.
	views[0].Loading = false
	if got := b.Pick(gateway.Request{Model: "m"}, views); got != 1 {
		t.Fatalf("fallback picked %d, want least-loaded 1", got)
	}
}

// mkVRAMCluster builds a 2-GPU cluster whose dispatchers carry a VRAM
// budget, with two weighted models registered.
func mkVRAMCluster(t *testing.T, b gateway.Policy, capacity int64) (*sim.Env, *Cluster) {
	t.Helper()
	env := sim.NewEnv()
	devs := []gpu.Config{gpu.TeslaT4(), gpu.TeslaT4()}
	c, err := NewWithConfig(env, devs, func(int, gpu.Config) core.Config {
		cfg := core.DefaultConfig(sched.NewPaella(10000))
		cfg.VRAM = &vram.Config{CapacityBytes: capacity, BlockBytes: 1 << 20}
		return cfg
	}, b)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"wa", "wb"} {
		m := model.TinyNet()
		m.Name = name
		m.WeightBytes = 24 << 20
		if err := c.RegisterModel(m, compiler.DefaultConfig(), 1); err != nil {
			t.Fatal(err)
		}
	}
	return env, c
}

// TestClusterResidencyRouting: after each model warms up on one GPU, the
// residency-aware balancer keeps routing it there — so the second wave of
// requests sees zero cold starts, where least-loaded routing would bounce
// models between GPUs and re-page weights.
func TestClusterResidencyRouting(t *testing.T) {
	// Round-robin fallback spreads cold models across GPUs; with the
	// default least-loaded fallback, two idle GPUs tie and every cold
	// model would land on GPU 0, evicting each other forever.
	env, c := mkVRAMCluster(t, gateway.NewResidencyAware(gateway.NewRoundRobin()), 32<<20)
	conn := c.Connect()
	done := 0
	conn.OnComplete = func(uint64) { done++ }
	models := []string{"wa", "wb"}
	for i := 0; i < 20; i++ {
		id := uint64(i + 1)
		m := models[i%2]
		env.At(sim.Time(i)*5*sim.Millisecond, func() {
			conn.Submit(core.Request{ID: id, Model: m, Submit: env.Now()})
		})
	}
	env.Run()
	if done != 20 {
		t.Fatalf("completed %d of 20", done)
	}
	cold := c.Collector().ColdStarts()
	if cold != 2 {
		t.Fatalf("cold starts = %d, want exactly 2 (one per model)", cold)
	}
	// Each GPU ended up the stable home of one model.
	var loads uint64
	for i := 0; i < c.Size(); i++ {
		loads += c.Dispatcher(i).VRAM().Stats().Loads
	}
	if loads != 2 {
		t.Fatalf("total weight loads = %d, want 2", loads)
	}
}

// TestCrashFailover: crashing one replica mid-run moves its pending
// requests to the survivor; completions plus typed failures account for
// every submission, and new submissions avoid the dead replica.
func TestCrashFailover(t *testing.T) {
	env, c := mkCluster(t, gateway.NewRoundRobin())
	conn := c.Connect()
	completed, failed := 0, 0
	conn.OnComplete = func(uint64) { completed++ }
	conn.OnFailed = func(uint64, error) { failed++ }
	submitted := 0
	for i := 0; i < 60; i++ {
		id := uint64(i + 1)
		env.At(sim.Time(i)*10*sim.Microsecond, func() {
			if conn.Submit(core.Request{ID: id, Model: "tinynet", Submit: env.Now()}) >= 0 {
				submitted++
			}
		})
	}
	env.At(150*sim.Microsecond, func() { c.Crash(0) })
	var lateGPU int
	env.At(200*sim.Microsecond, func() {
		lateGPU = conn.Submit(core.Request{ID: 1000, Model: "tinynet", Submit: env.Now()})
		if lateGPU >= 0 {
			submitted++
		}
	})
	env.Run()

	if !c.Alive(1) || c.Alive(0) {
		t.Fatalf("liveness after crash: gpu0=%v gpu1=%v", c.Alive(0), c.Alive(1))
	}
	if c.LiveReplicas() != 1 || c.Crashes() != 1 {
		t.Fatalf("LiveReplicas=%d Crashes=%d, want 1/1", c.LiveReplicas(), c.Crashes())
	}
	if lateGPU != 1 {
		t.Fatalf("post-crash submission routed to GPU %d, want survivor 1", lateGPU)
	}
	if completed+failed != submitted {
		t.Fatalf("conservation: %d completed + %d failed != %d submitted",
			completed, failed, submitted)
	}
	if completed == 0 {
		t.Fatal("nothing completed after failover")
	}
}

// TestCrashAllReplicas: with every replica dead, Submit reports no target
// and pending work fails with ErrReplicaCrashed rather than hanging.
func TestCrashAllReplicas(t *testing.T) {
	env, c := mkCluster(t, gateway.NewRoundRobin())
	conn := c.Connect()
	var lastErr error
	failed := 0
	conn.OnFailed = func(_ uint64, err error) { failed++; lastErr = err }
	for i := 0; i < 8; i++ {
		id := uint64(i + 1)
		env.At(0, func() {
			conn.Submit(core.Request{ID: id, Model: "tinynet", Submit: env.Now()})
		})
	}
	env.At(5*sim.Microsecond, func() { c.Crash(0); c.Crash(1) })
	rejected := false
	env.At(10*sim.Microsecond, func() {
		rejected = conn.Submit(core.Request{ID: 99, Model: "tinynet", Submit: env.Now()}) < 0
	})
	env.Run()

	if !rejected {
		t.Fatal("Submit found a replica on a fully-dead cluster")
	}
	if failed == 0 || lastErr != ErrReplicaCrashed {
		t.Fatalf("pending work: failed=%d lastErr=%v, want ErrReplicaCrashed", failed, lastErr)
	}
	if c.LiveReplicas() != 0 {
		t.Fatalf("LiveReplicas=%d, want 0", c.LiveReplicas())
	}
}
