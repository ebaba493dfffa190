package cluster

import (
	"testing"

	"paella/internal/compiler"
	"paella/internal/core"
	"paella/internal/gateway"
	"paella/internal/gpu"
	"paella/internal/llm"
	"paella/internal/model"
	"paella/internal/sched"
	"paella/internal/sim"
	"paella/internal/trace"
	"paella/internal/vram"
)

// mkWorldVRAMCluster builds a traced 2-replica cluster on a World, each
// replica with a VRAM budget, and registers the named models at 24 MiB of
// weights each.
func mkWorldVRAMCluster(t *testing.T, capacity int64, models ...string) (*sim.World, *Cluster) {
	t.Helper()
	w := sim.NewWorld()
	t.Cleanup(w.Close)
	w.Ctrl().SetRecorder(trace.New())
	c, err := NewWorldWithConfig(w, []gpu.Config{gpu.TeslaT4(), gpu.TeslaT4()},
		func(int, gpu.Config) core.Config {
			cfg := core.DefaultConfig(sched.NewPaella(10000))
			cfg.VRAM = &vram.Config{CapacityBytes: capacity, BlockBytes: 1 << 20}
			return cfg
		}, gateway.NewLeastLoaded(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range models {
		m := model.TinyNet()
		m.Name = name
		m.WeightBytes = 24 << 20
		if err := c.RegisterModel(m, compiler.DefaultConfig(), 1); err != nil {
			t.Fatal(err)
		}
	}
	return w, c
}

// TestWarmupEvictDrain walks one replica through the autoscaler's life
// cycle on a VRAM-budgeted World cluster: drained replicas take no new
// work, Warmup pages every model that fits (once, asynchronously), and
// EvictAll returns the replica to cold.
func TestWarmupEvictDrain(t *testing.T) {
	w, c := mkWorldVRAMCluster(t, 56<<20, "wa", "wb", "wc")
	if c.World() != w {
		t.Fatal("World() does not return the cluster's engine")
	}
	if got := c.modelOrder; len(got) != 3 || got[0] != "wa" || got[2] != "wc" {
		t.Fatalf("Models() = %v, want registration order", got)
	}
	if c.weightBytes["wb"] != 24<<20 || c.weightBytes["nope"] != 0 {
		t.Fatalf("weight bytes = %d / %d", c.weightBytes["wb"], c.weightBytes["nope"])
	}
	if c.costOf(1, "wa") <= 0 || c.costOf(1, "nope") != 0 {
		t.Fatalf("model cost = %v / %v", c.costOf(1, "wa"), c.costOf(1, "nope"))
	}

	// Drain replica 0: new work goes to replica 1 only.
	c.SetRoutable(0, false)
	if c.Routable(0) || !c.Routable(1) {
		t.Fatalf("routable = %v/%v, want false/true", c.Routable(0), c.Routable(1))
	}
	conn := c.Connect()
	done := 0
	conn.OnComplete = func(uint64) { done++ }
	ctrl := w.Ctrl()
	ctrl.At(0, func() {
		for id := uint64(1); id <= 4; id++ {
			if g := conn.Submit(core.Request{ID: id, Model: "wa", Submit: 0}); g != 1 {
				t.Errorf("request %d routed to %d while replica 0 drains", id, g)
			}
		}
		if c.InFlight(0) != 0 || c.InFlight(1) != 4 || c.pendingNs[1] != 4*c.costOf(1, "wa") {
			t.Errorf("inflight %d/%d queued %v after routing", c.InFlight(0), c.InFlight(1), c.pendingNs[1])
		}
	})

	// Warm the drained replica: two of the three models fit the budget.
	warmed, paged := 0, int64(0)
	ctrl.At(sim.Microsecond, func() { paged = c.Warmup(0, func() { warmed++ }) })
	w.RunUntil(sim.Second)
	if done != 4 || c.InFlight(1) != 0 || c.pendingNs[1] != 0 {
		t.Fatalf("completed %d of 4, inflight %d, queued %v", done, c.InFlight(1), c.pendingNs[1])
	}
	mgr := c.Dispatcher(0).VRAM()
	if warmed != 1 || paged != 48<<20 {
		t.Fatalf("warmup fired %d times paging %d B, want once paging %d B", warmed, paged, 48<<20)
	}
	if mgr.State("wa") != vram.Resident || mgr.State("wb") != vram.Resident || mgr.State("wc") != vram.Cold {
		t.Fatalf("after warmup: wa=%v wb=%v wc=%v", mgr.State("wa"), mgr.State("wb"), mgr.State("wc"))
	}

	// Re-warming a warm replica pages nothing but still reports done.
	ctrl.At(ctrl.Now(), func() { paged = c.Warmup(0, func() { warmed++ }) })
	w.RunUntil(2 * sim.Second)
	if warmed != 2 || paged != 0 {
		t.Fatalf("re-warmup fired %d times paging %d B, want 2 / 0", warmed, paged)
	}

	c.EvictAll(0)
	for _, name := range c.modelOrder {
		if mgr.State(name) != vram.Cold {
			t.Fatalf("%s still %v after EvictAll", name, mgr.State(name))
		}
	}
	c.SetRoutable(0, true)
	if !c.Routable(0) || !c.Routable(1) {
		t.Fatal("replica 0 not routable after undrain")
	}
}

// TestWarmupWithoutBudget: a replica with no VRAM budget pays one bulk
// transfer for the whole registered weight set, and EvictAll is a no-op.
func TestWarmupWithoutBudget(t *testing.T) {
	env, c := mkCluster(t, gateway.NewLeastLoaded())
	m := model.TinyNet()
	m.Name = "weighted"
	m.WeightBytes = 8 << 20
	if err := c.RegisterModel(m, compiler.DefaultConfig(), 1); err != nil {
		t.Fatal(err)
	}
	var doneAt sim.Time
	paged := c.Warmup(1, func() { doneAt = env.Now() })
	c.EvictAll(1)
	env.Run()
	if paged != c.weightBytes["tinynet"]+8<<20 || doneAt <= 0 {
		t.Fatalf("paged %d B, done at %v", paged, doneAt)
	}
}

// TestBuildRejectsBadShapes: an empty device list, a world that already
// has shards, and a malformed PD config are construction errors, not
// panics.
func TestBuildRejectsBadShapes(t *testing.T) {
	mk := func(int, gpu.Config) core.Config { return core.DefaultConfig(sched.NewPaella(10000)) }
	if _, err := NewWithConfig(sim.NewEnv(), nil, mk, gateway.NewLeastLoaded()); err == nil {
		t.Fatal("cluster with no devices built")
	}
	w := sim.NewWorld()
	defer w.Close()
	w.AddShard()
	if _, err := NewWorldWithConfig(w, []gpu.Config{gpu.TeslaT4()}, mk, gateway.NewLeastLoaded(), nil); err == nil {
		t.Fatal("cluster built on a world that already has shards")
	}
	for _, cfg := range []PDConfig{
		{Prefills: 0},
		{Prefills: 1, Decodes: -1},
		{Prefills: 1, Decodes: 1, Engines: make([]llm.Config, 1)},
	} {
		if _, err := NewPD(sim.NewEnv(), cfg); err == nil {
			t.Fatalf("pd built from %+v", cfg)
		}
	}
}
