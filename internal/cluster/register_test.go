package cluster

import (
	"fmt"
	"strings"
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

// TestRegisterModelAllOrNothing: a model that does not fit one replica's
// VRAM joins no replica, so nothing is left half registered and a model
// that fits still registers everywhere.
func TestRegisterModelAllOrNothing(t *testing.T) {
	env := sim.NewEnv()
	c, err := NewWithConfig(env, []gpu.Config{gpu.TeslaT4(), gpu.TeslaT4()}, func(i int, _ gpu.Config) core.Config {
		cfg := core.DefaultConfig(sched.NewPaella(10000))
		if i == 1 {
			cfg.VRAM = &vram.Config{CapacityBytes: 4 << 20}
		}
		return cfg
	}, gateway.NewLeastLoaded())
	if err != nil {
		t.Fatal(err)
	}
	big := model.TinyNet()
	big.WeightBytes = 8 << 20
	// A retry fails for the same reason, not because a replica kept it.
	for try := 0; try < 2; try++ {
		err := c.RegisterModel(big, compiler.DefaultConfig(), 1)
		if err == nil || strings.Contains(err.Error(), "already registered") {
			t.Fatalf("try %d: an 8 MiB model on a 4 MiB replica: %v", try, err)
		}
	}
	if _, ok := c.costNs[big.Name]; ok || len(c.modelOrder) != 0 {
		t.Fatalf("failed registration left cluster state: costNs %v, order %v", c.costNs, c.modelOrder)
	}
	ins := compiler.MustCompile(big, compiler.DefaultConfig(), gpu.TeslaT4(), 1)
	if err := c.Dispatcher(0).RegisterModel(ins); err != nil {
		t.Fatalf("replica 0 kept the failed model: %v", err)
	}

	small := model.TinyNet()
	small.Name = "tinynet-small"
	small.WeightBytes = 2 << 20
	if err := c.RegisterModel(small, compiler.DefaultConfig(), 1); err != nil {
		t.Fatal(err)
	}
	known := compiler.MustCompile(small, compiler.DefaultConfig(), gpu.TeslaT4(), 1)
	for i := 0; i < c.Size(); i++ {
		if c.Dispatcher(i).CheckModel(known) == nil {
			t.Fatalf("replica %d does not know %s", i, small.Name)
		}
	}
	if len(c.costNs[small.Name]) != 2 || len(c.modelOrder) != 1 {
		t.Fatalf("costNs %v, order %v", c.costNs, c.modelOrder)
	}
}

// TestHeterogeneousCosts: each replica's cost is the one a standalone
// compile on its own device configuration gives, so replicas that share a
// configuration share a cost and a T4 and a P100 quote different ones. The
// model's one kernel takes three waves on a T4 and one on a P100.
func TestHeterogeneousCosts(t *testing.T) {
	wide := &model.Model{
		Name: "wide",
		Kernels: []*gpu.KernelSpec{{
			Name: "wide", Blocks: 112, ThreadsPerBlock: 1024, RegsPerThread: 32,
			BlockDuration: 100 * sim.Microsecond,
		}},
		Seq: []int{0},
	}
	devs := []gpu.Config{gpu.TeslaT4(), gpu.TeslaP100(), gpu.TeslaT4()}
	c, err := New(sim.NewEnv(), devs, func() sched.Policy { return sched.NewPaella(10000) }, gateway.NewLeastLoaded())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterModel(wide, compiler.DefaultConfig(), 1); err != nil {
		t.Fatal(err)
	}
	costs := c.costNs[wide.Name]
	for i, dev := range devs {
		want := compiler.MustCompile(wide, compiler.DefaultConfig(), dev, 1).Profile.TotalTime()
		if costs[i] != want {
			t.Errorf("replica %d (%s) cost %v, standalone compile %v", i, dev.Name, costs[i], want)
		}
	}
	if costs[0] == costs[1] {
		t.Errorf("T4 and P100 quote the same cost %v", costs[0])
	}
}

// buildFleet builds a cluster of n T4 replicas and registers the 8-model
// synthetic zoo, the setup of a DNN fleet.
func buildFleet(tb testing.TB, n int) *Cluster {
	devs := make([]gpu.Config, n)
	for i := range devs {
		devs[i] = gpu.TeslaT4()
	}
	c, err := New(sim.NewEnv(), devs, func() sched.Policy { return sched.NewPaella(10000) }, gateway.NewLeastLoaded())
	if err != nil {
		tb.Fatal(err)
	}
	for _, m := range model.SyntheticZoo(8) {
		if err := c.RegisterModel(m, compiler.DefaultConfig(), 1); err != nil {
			tb.Fatal(err)
		}
	}
	return c
}

// TestFleetBuildAllocs: a 4-replica build compiles each model once, not
// once per replica, so it allocates well under 4× a 1-replica build.
func TestFleetBuildAllocs(t *testing.T) {
	one := testing.AllocsPerRun(3, func() { buildFleet(t, 1) })
	four := testing.AllocsPerRun(3, func() { buildFleet(t, 4) })
	if four >= 1.5*one {
		t.Fatalf("4-replica build: %.0f allocs, 1-replica build %.0f (%.2f×, want < 1.5×)", four, one, four/one)
	}
}

func BenchmarkClusterBuild(b *testing.B) {
	for _, n := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("replicas=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buildFleet(b, n)
			}
		})
	}
}
