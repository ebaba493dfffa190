package autoscale

import (
	"testing"

	"paella/internal/cluster"
	"paella/internal/compiler"
	"paella/internal/gateway"
	"paella/internal/gpu"
	"paella/internal/model"
	"paella/internal/sched"
	"paella/internal/sim"
)

// BenchmarkAutoscaleTick times one control-loop tick of the queue-depth
// policy over four active replicas; the pool is pinned at four, so every
// tick reads the signals and asks the policy without moving a replica.
func BenchmarkAutoscaleTick(b *testing.B) {
	env := sim.NewEnv()
	devs := []gpu.Config{gpu.TeslaT4(), gpu.TeslaT4(), gpu.TeslaT4(), gpu.TeslaT4()}
	c, err := cluster.New(env, devs, func() sched.Policy { return sched.NewPaella(10000) }, gateway.NewLeastLoaded())
	if err != nil {
		b.Fatal(err)
	}
	if err := c.RegisterModel(model.TinyNet(), compiler.DefaultConfig(), 1); err != nil {
		b.Fatal(err)
	}
	pol, err := New("queue-depth")
	if err != nil {
		b.Fatal(err)
	}
	s, err := NewScaler(env, c, Config{Min: 4, Max: 4, Policy: pol})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ObserveSubmit()
		s.tick()
	}
}
