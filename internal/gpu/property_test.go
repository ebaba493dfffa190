package gpu

import (
	"testing"
	"testing/quick"

	"paella/internal/channel"
	"paella/internal/sim"
)

// TestFIFOOrderProperty: within a single hardware queue, always-ready
// kernels of identical shape complete in submission order.
func TestFIFOOrderProperty(t *testing.T) {
	f := func(durRaw []uint8) bool {
		if len(durRaw) == 0 || len(durRaw) > 20 {
			return true
		}
		env := sim.NewEnv()
		d := testDevice(env, 1, 1)
		var order []int
		for i := range durRaw {
			i := i
			// Identical shapes that fill the SM, so execution serializes.
			d.Submit(0, &Launch{
				Spec: &KernelSpec{
					Name: "k", Blocks: 4, ThreadsPerBlock: 256, RegsPerThread: 8,
					BlockDuration: sim.Time(durRaw[i]%50+1) * sim.Microsecond,
				},
				OnComplete: func() { order = append(order, i) },
			})
		}
		env.Run()
		for i := range order {
			if order[i] != i {
				return false
			}
		}
		return len(order) == len(durRaw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestNotificationConservationProperty: for any grid size and aggregation
// group, the notifQ records of one instrumented kernel sum to exactly
// Blocks placements and Blocks completions.
func TestNotificationConservationProperty(t *testing.T) {
	f := func(blocksRaw uint8, groupRaw uint8) bool {
		blocks := int(blocksRaw)%200 + 1
		group := int(groupRaw) % 32 // 0 disables aggregation
		env := sim.NewEnv()
		nq := channel.NewNotifQueue(1 << 12)
		cfg := Config{
			Name: "prop", NumSMs: 4,
			SM:          SMResources{MaxBlocks: 16, MaxThreads: 1024, MaxRegisters: 65536, MaxSharedMem: 64 << 10},
			NumHWQueues: 4,
		}
		d := NewDevice(env, cfg, nq)
		d.Submit(0, &Launch{
			Spec: &KernelSpec{
				Name: "k", Blocks: blocks, ThreadsPerBlock: 64, RegsPerThread: 8,
				BlockDuration: 5 * sim.Microsecond,
			},
			KernelID:   9,
			NotifGroup: max(group, 1),
		})
		env.Run()
		buf := make([]channel.Notification, 1<<12)
		n := nq.Poll(buf)
		placed, completed := 0, 0
		for i := 0; i < n; i++ {
			switch buf[i].Type() {
			case channel.Placement:
				placed += int(buf[i].GroupCount())
			case channel.Completion:
				completed += int(buf[i].GroupCount())
			default:
				return false
			}
			if buf[i].KernelID() != 9 {
				return false
			}
		}
		return placed == blocks && completed == blocks
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestUtilizationBoundedProperty: device utilization is always in [0, 1].
func TestUtilizationBoundedProperty(t *testing.T) {
	f := func(jobs uint8) bool {
		env := sim.NewEnv()
		d := testDevice(env, 2, 2)
		n := int(jobs)%10 + 1
		for i := 0; i < n; i++ {
			d.Submit(i%2, &Launch{Spec: simpleKernel("k", i%3+1, sim.Time(i+1)*sim.Microsecond)})
		}
		env.Run()
		u := d.Utilization()
		return u >= 0 && u <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
