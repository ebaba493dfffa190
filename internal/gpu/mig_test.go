package gpu

import (
	"testing"

	"paella/internal/sim"
)

func TestSplitMIG(t *testing.T) {
	parts, err := SplitMIG(TeslaT4(), []int{20, 10, 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 3 {
		t.Fatalf("parts = %d", len(parts))
	}
	if parts[0].NumSMs != 20 || parts[1].NumSMs != 10 {
		t.Fatalf("SM split wrong: %+v", parts)
	}
	// Queues split proportionally: 32×20/40=16, 32×10/40=8.
	if parts[0].EffectiveQueues() != 16 || parts[1].EffectiveQueues() != 8 {
		t.Fatalf("queue split wrong: %d, %d", parts[0].EffectiveQueues(), parts[1].EffectiveQueues())
	}
	// Per-SM limits unchanged.
	if parts[0].SM != TeslaT4().SM {
		t.Fatal("per-SM limits changed by split")
	}
}

func TestSplitMIGValidation(t *testing.T) {
	if _, err := SplitMIG(TeslaT4(), nil); err == nil {
		t.Error("empty split accepted")
	}
	if _, err := SplitMIG(TeslaT4(), []int{0, 40}); err == nil {
		t.Error("zero-SM partition accepted")
	}
	if _, err := SplitMIG(TeslaT4(), []int{30, 30}); err == nil {
		t.Error("oversubscribed split accepted")
	}
}

// TestMIGIsolation: saturating one partition must not affect latency on
// the other — MIG's core guarantee, trivially delivered by fully separate
// simulated devices.
func TestMIGIsolation(t *testing.T) {
	base := TeslaT4()
	base.LaunchOverhead = 0 // exact timing for the isolation assertion
	parts, err := SplitMIG(base, []int{20, 20})
	if err != nil {
		t.Fatal(err)
	}
	env := sim.NewEnv()
	busy := NewDevice(env, parts[0], nil)
	quiet := NewDevice(env, parts[1], nil)

	kern := &KernelSpec{Name: "k", Blocks: 80, ThreadsPerBlock: 512, RegsPerThread: 16, BlockDuration: 100 * sim.Microsecond}
	// Saturate partition 0 with ten big kernels.
	for i := 0; i < 10; i++ {
		busy.Submit(i%busy.NumQueues(), &Launch{Spec: kern})
	}
	// A single small kernel on partition 1 must complete in exactly one
	// block duration.
	var doneAt sim.Time
	small := &KernelSpec{Name: "s", Blocks: 1, ThreadsPerBlock: 128, RegsPerThread: 8, BlockDuration: 50 * sim.Microsecond}
	quiet.Submit(0, &Launch{Spec: small, OnComplete: func() { doneAt = env.Now() }})
	env.Run()
	if doneAt != 50*sim.Microsecond {
		t.Fatalf("quiet partition kernel finished at %v, want 50µs (isolation violated)", doneAt)
	}
}
