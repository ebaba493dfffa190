package core

import (
	"testing"

	"paella/internal/compiler"
	"paella/internal/gpu"
	"paella/internal/model"
	"paella/internal/sched"
	"paella/internal/sim"
)

// BenchmarkDispatchSaturated measures one dispatcher wakeup on a T4 whose
// occupancy mirror is saturated, with 1,200 jobs waiting in the policy: the
// loop polls the client rings and the notification queue, finds the mirror
// refusing every kernel, and parks again. The mirror is saturated by hand
// (every block slot resident, the overshoot budget reserved) so the device
// stays quiet and each iteration is exactly one wakeup.
func BenchmarkDispatchSaturated(b *testing.B) {
	const clients, perClient = 2, 600
	env := sim.NewEnv()
	devCfg := gpu.TeslaT4()
	d := NewWithDevice(env, devCfg, DefaultConfig(sched.NewPaella(10000)))
	if err := d.RegisterModel(compiler.MustCompile(model.TinyNet(), compiler.DefaultConfig(), devCfg, 1)); err != nil {
		b.Fatal(err)
	}
	d.mirror.resBlocks = d.mirror.capBlocks
	d.mirror.rsvBlocks = d.mirror.overshoot
	d.Start()
	for c := 0; c < clients; c++ {
		conn := d.Connect()
		for i := 0; i < perClient; i++ {
			if !conn.Submit(Request{ID: uint64(c*perClient + i + 1), Model: "tinynet", Client: c}) {
				b.Fatal("client ring full")
			}
		}
	}
	env.Run()
	if n := d.cfg.Policy.Len(); n < 1000 {
		b.Fatalf("%d jobs in the policy, want ≥1,000", n)
	}
	if !d.mirror.Saturated() {
		b.Fatal("mirror not saturated")
	}
	wakeups := d.Stats().LoopWakeups
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.wakeNow()
		env.Run()
	}
	b.StopTimer()
	if got := d.Stats().LoopWakeups - wakeups; got != uint64(b.N) {
		b.Fatalf("%d wakeups for %d iterations", got, b.N)
	}
	if d.Stats().KernelsSent != 0 {
		b.Fatal("a kernel was dispatched past the saturated mirror")
	}
}
