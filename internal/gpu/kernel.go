package gpu

import (
	"fmt"

	"paella/internal/sim"
)

// KernelSpec is the static execution configuration of a CUDA kernel — the
// ≪Dg, Db, Ns≫ triple plus the post-compilation register count (§4.1). All
// four are knowable before launch, which is what lets the Paella dispatcher
// predict placement without consulting the hardware.
type KernelSpec struct {
	Name string
	// Blocks is the grid size Dg: the number of thread blocks.
	Blocks int
	// ThreadsPerBlock is the block size Db.
	ThreadsPerBlock int
	// RegsPerThread is the compiled register demand per thread.
	RegsPerThread int
	// SharedMemPerBlock is Ns, the dynamic shared memory per block in bytes.
	SharedMemPerBlock int
	// BlockDuration is how long one block occupies its SM once placed.
	BlockDuration sim.Time
}

// Validate reports a descriptive error for nonsensical configurations.
func (k *KernelSpec) Validate() error {
	switch {
	case k.Blocks <= 0:
		return fmt.Errorf("kernel %q: grid size %d", k.Name, k.Blocks)
	case k.ThreadsPerBlock <= 0:
		return fmt.Errorf("kernel %q: block size %d", k.Name, k.ThreadsPerBlock)
	case k.RegsPerThread < 0 || k.SharedMemPerBlock < 0:
		return fmt.Errorf("kernel %q: negative resource demand", k.Name)
	case k.BlockDuration < 0:
		return fmt.Errorf("kernel %q: negative duration", k.Name)
	}
	return nil
}

// BlockCost returns the per-SM resource vector one block consumes, in the
// order (blocks, threads, registers, shared memory) of Table 1.
func (k *KernelSpec) BlockCost() (blocks, threads, regs, shmem int) {
	return 1, k.ThreadsPerBlock, k.ThreadsPerBlock * k.RegsPerThread, k.SharedMemPerBlock
}

// FitsSM reports whether a single block can ever be placed on an SM with
// the given limits.
func (k *KernelSpec) FitsSM(r SMResources) bool {
	_, th, rg, sh := k.BlockCost()
	return th <= r.MaxThreads && rg <= r.MaxRegisters && sh <= r.MaxSharedMem && r.MaxBlocks >= 1
}

// MaxResidentPerSM returns the occupancy limit: how many blocks of this
// kernel can be resident on one SM simultaneously.
func (k *KernelSpec) MaxResidentPerSM(r SMResources) int {
	if !k.FitsSM(r) {
		return 0
	}
	_, th, rg, sh := k.BlockCost()
	n := r.MaxBlocks
	if th > 0 {
		n = min(n, r.MaxThreads/th)
	}
	if rg > 0 {
		n = min(n, r.MaxRegisters/rg)
	}
	if sh > 0 {
		n = min(n, r.MaxSharedMem/sh)
	}
	return n
}

// MaxResident returns the device-wide occupancy limit for this kernel.
func (k *KernelSpec) MaxResident(c Config) int {
	return k.MaxResidentPerSM(c.SM) * c.NumSMs
}

// Batched returns a widened clone of the spec for an n-way batched launch:
// the grid grows to n×Blocks (one sub-grid per batched sample) while the
// per-block resource vector is unchanged, so placement and occupancy
// accounting (FitsSM, MaxResident, the dispatcher's Table 1 mirror) hold
// exactly as for n separate launches. BlockDuration is scaled by
// perBlockScale — the profiled sub-linear batch curve — which is where the
// batching win lives: total block-time B·n·d·s(n) < n·B·d when s(n) < 1.
// n ≤ 1 returns the receiver unchanged.
func (k *KernelSpec) Batched(n int, perBlockScale float64) *KernelSpec {
	if n <= 1 {
		return k
	}
	c := *k
	c.Name = fmt.Sprintf("%s#b%d", k.Name, n)
	c.Blocks = k.Blocks * n
	c.BlockDuration = sim.Time(float64(k.BlockDuration) * perBlockScale)
	return &c
}

// LaunchState tracks one submitted kernel instance through placement and
// completion.
type LaunchState int

const (
	// LaunchQueued: in a hardware queue, not yet (fully) placed.
	LaunchQueued LaunchState = iota
	// LaunchPlacing: at the head of its queue with some blocks placed.
	LaunchPlacing
	// LaunchRunning: all blocks placed; the launch has left the queue.
	LaunchRunning
	// LaunchDone: all blocks completed.
	LaunchDone
)

// String returns the state name.
func (s LaunchState) String() string {
	switch s {
	case LaunchQueued:
		return "queued"
	case LaunchPlacing:
		return "placing"
	case LaunchRunning:
		return "running"
	case LaunchDone:
		return "done"
	default:
		return "invalid"
	}
}

// Launch is one kernel instance submitted to the device. The host (the
// CUDA runtime emulation or the Paella dispatcher) fills in the identity
// and callback fields; the device manages the progress fields.
type Launch struct {
	Spec *KernelSpec
	// KernelID is the dispatcher-assigned unique id carried by notifQ
	// records (§4.1). It distinguishes executions of the same kernel.
	KernelID uint32
	// JobTag labels the owning job in execution traces.
	JobTag string
	// Ready reports whether the launch's stream dependencies are satisfied.
	// A queue whose head launch is not ready stalls — this is the
	// head-of-line blocking of §2.1. The device re-examines readiness on
	// every scheduling pass. A nil Ready means always ready.
	Ready func() bool
	// NotifGroup is the notification aggregation group of an instrumented
	// launch (§5.2): the kernel writes a notifQ placement or completion
	// record every NotifGroup blocks and at its last block. The dispatcher
	// stamps it from the compiled model (compiler.Instrumented.NotifGroup);
	// zero means an uninstrumented launch, which writes no records.
	NotifGroup int
	// OnComplete, if non-nil, runs when the last block finishes.
	OnComplete func()
	// onAllPlaced, if non-nil, runs when the last block is placed (the
	// launch leaves its hardware queue). Only the package's tests set it.
	onAllPlaced func()

	state    LaunchState
	toPlace  int
	toFinish int
	// dev backlinks to the owning device from Submit on, letting the
	// launch-overhead expiry run as a typed event instead of a per-launch
	// closure.
	dev *Device
	// Kernel-wide notification counters (Figure 6's startCount/endCount).
	placed, completed notifCount
	// fullPass is the device scheduling pass in which placeBlocks last
	// left this launch with blocks unplaced and every SM they fit on full.
	fullPass uint64
	queuedAt sim.Time
}

// notifCount is one direction's kernel-wide notification counter and the
// count at which its next record is due: one NotifGroup past the blocks
// reported to the notifQ so far, capped at the grid size. A block count
// below next writes no record and costs one add and one compare.
type notifCount struct{ count, next int }

// Recycle prepares a finished launch for reuse, clearing identity,
// callback, and progress state. It reports false — leaving the launch
// untouched — unless the launch is LaunchDone: a launch whose fate is
// uncertain (e.g. reconciled by a watchdog while the device may still hold
// it) must be left to the garbage collector instead of being reused.
func (l *Launch) Recycle() bool {
	if l.state != LaunchDone {
		return false
	}
	*l = Launch{}
	return true
}
