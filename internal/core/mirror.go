package core

import "paella/internal/gpu"

// mirror is the dispatcher's software copy of GPU occupancy (§4.1,
// Table 1), maintained entirely from execution-configuration metadata and
// instrumented placement/completion notifications. Resources are tracked in
// aggregate across SMs: resident (confirmed placed) plus reserved
// (dispatched, placement not yet confirmed). The dispatcher keeps releasing
// kernels while the predicted demand fits the device, plus an overshoot
// budget of B thread blocks queued beyond full utilization so the GPU never
// idles during the notification round trip (§6's "full utilization" rule).
type mirror struct {
	capBlocks, capThreads, capRegs, capShmem int
	resBlocks, resThreads, resRegs, resShmem int
	rsvBlocks, rsvThreads, rsvRegs, rsvShmem int
	overshoot                                int
}

func newMirror(cfg gpu.Config, overshoot int) mirror {
	return mirror{
		capBlocks:  cfg.NumSMs * cfg.SM.MaxBlocks,
		capThreads: cfg.NumSMs * cfg.SM.MaxThreads,
		capRegs:    cfg.NumSMs * cfg.SM.MaxRegisters,
		capShmem:   cfg.NumSMs * cfg.SM.MaxSharedMem,
		overshoot:  overshoot,
	}
}

// CanAccept reports whether dispatching k now keeps the device within
// capacity plus the overshoot budget.
func (m *mirror) CanAccept(k *gpu.KernelSpec) bool {
	_, th, rg, sh := k.BlockCost()
	n := k.Blocks
	fits := m.resBlocks+m.rsvBlocks+n <= m.capBlocks &&
		m.resThreads+m.rsvThreads+n*th <= m.capThreads &&
		m.resRegs+m.rsvRegs+n*rg <= m.capRegs &&
		m.resShmem+m.rsvShmem+n*sh <= m.capShmem
	if fits {
		return true
	}
	// Full utilization reached: allow up to B blocks queued beyond it.
	return m.rsvBlocks < m.overshoot
}

// Saturated reports, in O(1), that CanAccept is false for every valid
// kernel: the overshoot budget is spent and no free block slot or thread
// is left. A valid kernel has Blocks ≥ 1 and ThreadsPerBlock ≥ 1
// (KernelSpec.Validate), so it cannot fit a full block or thread budget,
// and the spent budget rules out the overshoot path. The converse does not
// hold: a kernel too large for the remaining registers or shared memory is
// refused while the mirror is not saturated.
func (m *mirror) Saturated() bool {
	return m.rsvBlocks >= m.overshoot &&
		(m.resBlocks+m.rsvBlocks >= m.capBlocks || m.resThreads+m.rsvThreads >= m.capThreads)
}

// Reserve accounts for a dispatched kernel whose placement is not yet
// confirmed.
func (m *mirror) Reserve(k *gpu.KernelSpec) {
	_, th, rg, sh := k.BlockCost()
	n := k.Blocks
	m.rsvBlocks += n
	m.rsvThreads += n * th
	m.rsvRegs += n * rg
	m.rsvShmem += n * sh
}

// Place moves n blocks of k from reserved to resident (a placement
// notification arrived).
func (m *mirror) Place(k *gpu.KernelSpec, n int) {
	_, th, rg, sh := k.BlockCost()
	m.rsvBlocks -= n
	m.rsvThreads -= n * th
	m.rsvRegs -= n * rg
	m.rsvShmem -= n * sh
	m.resBlocks += n
	m.resThreads += n * th
	m.resRegs += n * rg
	m.resShmem += n * sh
	if m.rsvBlocks < 0 || m.rsvThreads < 0 || m.rsvRegs < 0 || m.rsvShmem < 0 {
		panic("core: mirror reservation went negative")
	}
}

// Complete releases n resident blocks of k (a completion notification
// arrived).
func (m *mirror) Complete(k *gpu.KernelSpec, n int) {
	_, th, rg, sh := k.BlockCost()
	m.resBlocks -= n
	m.resThreads -= n * th
	m.resRegs -= n * rg
	m.resShmem -= n * sh
	if m.resBlocks < 0 || m.resThreads < 0 || m.resRegs < 0 || m.resShmem < 0 {
		panic("core: mirror residency went negative")
	}
}

// rescale recomputes capacity for the given number of online SMs (fault
// injection retired or restored one). Resident and reserved accounting are
// untouched: blocks already on a retiring SM drain normally, and until they
// do the mirror simply sees the device as (transiently) over capacity,
// which correctly halts further dispatch.
func (m *mirror) rescale(cfg gpu.Config, online int) {
	if online < 0 {
		online = 0
	}
	m.capBlocks = online * cfg.SM.MaxBlocks
	m.capThreads = online * cfg.SM.MaxThreads
	m.capRegs = online * cfg.SM.MaxRegisters
	m.capShmem = online * cfg.SM.MaxSharedMem
}

// headroomBlocks returns capacity minus resident and reserved blocks —
// how many more blocks fit before the overshoot budget starts burning.
// Negative once dispatch has run past full utilization.
func (m *mirror) headroomBlocks() int {
	return m.capBlocks - m.resBlocks - m.rsvBlocks
}
