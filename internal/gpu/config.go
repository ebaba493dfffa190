// Package gpu models an NVIDIA-style GPU at the granularity the Paella
// paper reasons about (§2.1): an array of streaming multiprocessors (SMs)
// with static per-SM resource limits (Table 1), a limited set of strictly
// FIFO hardware queues that only ever consider the earliest-launched kernel
// at their head, and a greedy black-box block scheduler that places thread
// blocks onto SMs whenever the head kernels' resource demands fit.
//
// The model runs on virtual time (internal/sim) and reproduces the
// architectural behaviours Paella exploits — head-of-line blocking between
// streams that share a hardware queue, occupancy-gated concurrency, and the
// differences between GPU generations, which come down to the hardware
// queue count (Figure 1) — without requiring physical hardware.
package gpu

import "paella/internal/sim"

// SMResources are the per-SM physical limits of Table 1. A thread block
// occupies one block slot, ThreadsPerBlock thread slots,
// ThreadsPerBlock×RegsPerThread registers, and SharedMemPerBlock bytes of
// shared memory for its entire residence.
type SMResources struct {
	MaxBlocks    int
	MaxThreads   int
	MaxRegisters int
	MaxSharedMem int
}

// Config describes a device instance.
type Config struct {
	Name   string
	NumSMs int
	SM     SMResources
	// NumHWQueues is the number of hardware queues: 1 on Fermi-era parts,
	// where kernels from all streams serialize in issue order, and 32 on
	// Kepler and later (HyperQ). Below 1 means 1.
	NumHWQueues int
	// NotifDelay is the device→host latency of an instrumented kernel's
	// notifQ write becoming visible to the dispatcher (pinned-memory
	// round trip, ~1µs on PCIe 3).
	NotifDelay sim.Time
	// LaunchOverhead is the fixed cost the hardware/runtime path adds to
	// each kernel launch before its blocks are considered for placement.
	LaunchOverhead sim.Time
	// VRAMBytes is the device-memory capacity available for model weights
	// (internal/vram). Zero means unconstrained — every model is treated
	// as permanently resident, the behaviour of runs that predate the
	// residency subsystem.
	VRAMBytes int64
}

// GTX1660Super returns the configuration of the GeForce GTX 1660 SUPER used
// for the paper's Figure 2 experiment: 22 SMs, 1024 threads/SM, 32 hardware
// queues.
func GTX1660Super() Config {
	return Config{
		Name:   "GTX 1660 SUPER",
		NumSMs: 22,
		SM: SMResources{
			MaxBlocks:    16,
			MaxThreads:   1024,
			MaxRegisters: 65536,
			MaxSharedMem: 64 << 10,
		},
		NumHWQueues:    32,
		NotifDelay:     1200 * sim.Nanosecond,
		LaunchOverhead: 4 * sim.Microsecond,
		VRAMBytes:      6 << 30,
	}
}

// TeslaT4 returns the configuration of the Tesla T4 used for the paper's
// main evaluation (§7): 40 SMs, 1024 threads/SM.
func TeslaT4() Config {
	return Config{
		Name:   "Tesla T4",
		NumSMs: 40,
		SM: SMResources{
			MaxBlocks:    16,
			MaxThreads:   1024,
			MaxRegisters: 65536,
			MaxSharedMem: 64 << 10,
		},
		NumHWQueues:    32,
		NotifDelay:     1200 * sim.Nanosecond,
		LaunchOverhead: 4 * sim.Microsecond,
		VRAMBytes:      16 << 30,
	}
}

// TeslaP100 returns the configuration of the Tesla P100 the paper also
// validated on (trends identical to the T4).
func TeslaP100() Config {
	return Config{
		Name:   "Tesla P100",
		NumSMs: 56,
		SM: SMResources{
			MaxBlocks:    32,
			MaxThreads:   2048,
			MaxRegisters: 65536,
			MaxSharedMem: 64 << 10,
		},
		NumHWQueues:    32,
		NotifDelay:     1300 * sim.Nanosecond,
		LaunchOverhead: 4 * sim.Microsecond,
		VRAMBytes:      16 << 30,
	}
}

// A100Like returns an Ampere-class datacenter part (108 SMs, 2048
// threads/SM), used for the paper's §8 "scaling to larger GPUs"
// discussion: more SMs mean more concurrent kernels to multiplex, and
// therefore more scheduling for the dispatcher to do.
func A100Like() Config {
	return Config{
		Name:   "A100-class",
		NumSMs: 108,
		SM: SMResources{
			MaxBlocks:    32,
			MaxThreads:   2048,
			MaxRegisters: 65536,
			MaxSharedMem: 164 << 10,
		},
		NumHWQueues:    32,
		NotifDelay:     1200 * sim.Nanosecond,
		LaunchOverhead: 4 * sim.Microsecond,
		VRAMBytes:      40 << 30,
	}
}

// TwoSM returns the didactic two-SM device of Figure 1, where every kernel
// occupies an entire SM, with the given hardware queue count.
func TwoSM(queues int) Config {
	return Config{
		Name:   "didactic-2SM",
		NumSMs: 2,
		SM: SMResources{
			MaxBlocks:    1,
			MaxThreads:   1024,
			MaxRegisters: 65536,
			MaxSharedMem: 48 << 10,
		},
		NumHWQueues: queues,
		NotifDelay:  1 * sim.Microsecond,
	}
}

// EffectiveQueues returns the number of hardware queues: NumHWQueues, at
// least 1.
func (c Config) EffectiveQueues() int { return max(c.NumHWQueues, 1) }
