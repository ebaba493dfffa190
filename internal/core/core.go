// Package core implements the Paella dispatcher (§5): the single-core
// service that receives inference requests over per-client shared-memory
// rings, tracks ground-truth GPU occupancy through the instrumented
// notification queue, and releases each job's CUDA operations to the device
// exactly when they can be placed — bypassing the hardware scheduler's FIFO
// queues and applying an arbitrary software scheduling policy (§6).
//
// The dispatcher supports the paper's ablation modes (Table 3):
//
//   - ModeGated ("Paella"): kernel-granularity dispatch gated by the
//     occupancy mirror, ordered by a sched.Policy (SRPT+deficit by
//     default, or SJF/RR/FIFO).
//   - ModeKernelByKernel ("Paella-MS-kbk"): kernel-granularity release —
//     each kernel is issued to the job's own CUDA stream when its
//     predecessor completes — but with no occupancy information and no
//     policy (hardware scheduling order).
//   - ModeJobByJob ("Paella-MS-jbj"): whole jobs are issued to a fresh
//     CUDA stream on admission (hardware scheduling, Paella frontend).
//   - ModeSingleStream ("Paella-SS"): whole jobs are issued to one shared
//     CUDA stream on admission (strict FIFO).
//
// All modes share the frontend: zero-copy request rings, the hybrid
// interrupt/poll client wakeup, and single-core cost accounting.
package core

import (
	"fmt"

	"paella/internal/channel"
	"paella/internal/compiler"
	"paella/internal/cudart"
	"paella/internal/gpu"
	"paella/internal/metrics"
	"paella/internal/rbtree"
	"paella/internal/sched"
	"paella/internal/sim"
	"paella/internal/telemetry"
	"paella/internal/trace"
	"paella/internal/vram"
)

// Mode selects the dispatch strategy (Table 3 variants).
type Mode int

const (
	// ModeGated is full Paella: software-defined, occupancy-gated,
	// policy-ordered kernel dispatch.
	ModeGated Mode = iota
	// ModeKernelByKernel releases kernels one at a time per job, without
	// occupancy gating.
	ModeKernelByKernel
	// ModeJobByJob releases whole jobs to per-job CUDA streams.
	ModeJobByJob
	// ModeSingleStream releases whole jobs to one shared CUDA stream.
	ModeSingleStream
)

// String returns the Table 3 label of the mode.
func (m Mode) String() string {
	switch m {
	case ModeGated:
		return "Paella"
	case ModeKernelByKernel:
		return "Paella-MS-kbk"
	case ModeJobByJob:
		return "Paella-MS-jbj"
	case ModeSingleStream:
		return "Paella-SS"
	default:
		return "unknown"
	}
}

// Config parameterizes the dispatcher.
type Config struct {
	Mode Mode
	// Policy orders runnable jobs in ModeGated (ignored otherwise).
	Policy sched.Policy
	// OvershootBlocks is B (§6): how many thread blocks beyond full
	// utilization to keep queued at the device so it never starves during
	// the notification round trip.
	OvershootBlocks int

	// AdmitCost is dispatcher CPU time to accept one request from a ring.
	AdmitCost sim.Time
	// DispatchCost is dispatcher CPU time to release one GPU operation.
	DispatchCost sim.Time
	// SchedDelay is extra synthetic per-decision delay (the Figure 9
	// knob); zero in normal operation.
	SchedDelay sim.Time
	// ShmLatency is the one-way client↔dispatcher shared-memory latency.
	ShmLatency sim.Time

	// VRAM, when non-nil, bounds device memory: model weights occupy VRAM
	// and must be resident before kernels dispatch, cold models page in
	// over the same PCIe link as tensor traffic, and LRU eviction reclaims
	// space (internal/vram). Nil preserves the pre-residency behaviour —
	// every model permanently resident, analytic per-copy transfer times.
	// Residency is modelled on the gated dispatch path (ModeGated); the
	// ablation modes predate many-model serving and ignore it.
	VRAM *vram.Config

	// RingCapacity sizes each client's request ring (power of two; zero
	// means 1024).
	RingCapacity int
	// NotifQCapacity sizes the device notification queue (power of two;
	// zero means 1<<14).
	NotifQCapacity int

	// KernelTimeout arms a watchdog on every gated kernel dispatch: if the
	// kernel's notifications have not completed it within its serial upper
	// bound (Blocks × BlockDuration) plus this grace period, the dispatcher
	// reconciles the occupancy mirror and recovers (re-dispatch or forced
	// completion; see onKernelTimeout). Arming it also relaxes the
	// dispatcher's fail-stop assertions for runs with fault injection:
	// stale or duplicated notifications are counted and ignored instead of
	// panicking. Zero disables the watchdog — the default, since a healthy
	// channel never loses notifications.
	KernelTimeout sim.Time

	// MaxBatch enables dynamic batching in ModeGated when > 1: same-model,
	// same-position ready jobs coalesce into one batched kernel launch with
	// a widened grid (blocks × batch size) and the profiled sub-linear
	// per-kernel batch curve (compiler.Profile.BatchScale). ≤ 1 (the
	// default) disables batching entirely — the dispatch path is
	// byte-identical to the unbatched dispatcher.
	MaxBatch int
	// BatchWindow bounds how long the dispatcher may hold a lone ready
	// kernel waiting for batch partners. The effective wait is adaptive —
	// scaled by ready-queue depth and capped at half the head job's
	// deadline slack (see batchHoldWindow) — so batching engages under
	// load and degenerates to immediate dispatch when the queue is short.
	// Zero restricts batching to opportunistic coalescing (partners that
	// are already ready; never waits). Holds never engage below a
	// ready-queue depth of 2×MaxBatch (low occupancy: the latency cost
	// cannot pay for itself).
	BatchWindow sim.Time
}

// Dispatcher constants, calibrated like DefaultConfig's costs but varied
// by no caller.
const (
	// dispatchScan bounds how many policy candidates the dispatcher
	// examines per decision when the front of the order does not fit.
	dispatchScan = 16
	// pollCost is the fixed cost of one notifQ poll that returns data;
	// perNotifCost is the per-record processing cost.
	pollCost     = 300 * sim.Nanosecond
	perNotifCost = 60 * sim.Nanosecond
	// maxKernelRetries bounds watchdog-triggered re-dispatches per job
	// before the job fails with ErrKernelTimeout.
	maxKernelRetries = 3
	// maxLoadRetries bounds weight-load retry attempts per model before
	// the waiting jobs fail with ErrLoadFailed; loadRetryBase is the first
	// retry's backoff, and each attempt doubles it.
	maxLoadRetries = 3
	loadRetryBase  = 100 * sim.Microsecond
)

// DefaultConfig returns dispatcher costs calibrated to the paper's
// measurements (single Xeon Silver core; Figure 10's µs-scale overheads).
func DefaultConfig(policy sched.Policy) Config {
	return Config{
		Mode:            ModeGated,
		Policy:          policy,
		OvershootBlocks: 96,
		AdmitCost:       1500 * sim.Nanosecond,
		DispatchCost:    2 * sim.Microsecond,
		ShmLatency:      400 * sim.Nanosecond,
	}
}

// runtimeConfig is the CUDA runtime configuration the dispatcher drives
// the device with: cudart's PCIe copy calibration, with the runtime's own
// host costs zeroed because the dispatcher loop charges dispatch costs.
func runtimeConfig() cudart.Config {
	def := cudart.DefaultConfig()
	return cudart.Config{MemcpyLatency: def.MemcpyLatency, PCIeBytesPerNs: def.PCIeBytesPerNs}
}

// Request is one inference request as carried by a client ring: the
// shared-memory analogue of paella.predict's arguments (§5.1). The input
// and output tensors live in the client's shared region; only sizes travel
// here (zero-copy).
type Request struct {
	ID     uint64
	Model  string
	Client int
	// Submit is the client-side call time.
	Submit sim.Time
	// Deadline is an optional absolute completion deadline, carried
	// through the channel for deadline-aware policies (EDF). Zero means
	// best-effort.
	Deadline sim.Time
	// Tenant identifies the workload owner for multi-tenant QoS: the
	// cluster gateway's admission control and per-tenant accounting key on
	// it, and it is copied into the request's JobRecord. Empty means
	// untenanted (single-tenant deployments).
	Tenant string
	// Session groups requests that share server-side state (an LLM
	// conversation reusing KV-cache); the gateway's affinity routing keeps
	// a session on its home replica. Zero means sessionless.
	Session uint64
}

// ClientConn is the dispatcher's end of one client's shared-memory region.
type ClientConn struct {
	ID   int
	ring *channel.SPSC[Request]
	d    *Dispatcher
	// dead marks a disconnected client: its live jobs were aborted and no
	// further callbacks fire (the shared region is gone).
	dead bool

	// OnAlmostFinished is rung (once per request) when the request's
	// output is imminent — the hybrid wakeup's interrupt (§5.3).
	OnAlmostFinished func(reqID uint64)
	// OnComplete delivers the finished request id (the completion ring).
	OnComplete func(reqID uint64)
	// OnFailed delivers a typed failure for a request that will never
	// complete (kernel timeout, load failure). Requests of a disconnected
	// client fail silently — there is no one to notify.
	OnFailed func(reqID uint64, err error)
}

// Submit pushes a request into the ring and wakes the dispatcher after the
// shared-memory propagation latency. It reports false if the ring is full
// (the client should back off and retry).
func (c *ClientConn) Submit(req Request) bool {
	if !c.ring.Push(req) {
		return false
	}
	c.d.env.After(c.d.cfg.ShmLatency, c.d.wakeNow)
	return true
}

// Disconnect severs the client mid-flight (fault injection: the client
// process died, its shared-memory region is unmapped). After the channel
// latency the dispatcher aborts the client's live jobs — in-flight kernels
// drain (GPU blocks cannot be preempted), then each job records a typed
// ErrClientDisconnected failure — and requests still queued in the ring are
// failed at admission. No callbacks fire on a dead connection.
func (c *ClientConn) Disconnect() {
	c.d.env.After(c.d.cfg.ShmLatency, func() { c.d.disconnectClient(c.ID) })
}

// Cancel aborts the identified request: undispatched kernels and copies
// are dropped; kernels already on the device run to completion (GPU
// thread blocks cannot be preempted, §2.1), after which the job finishes
// immediately with its record marked cancelled. This job-level preemption
// is exactly what the hardware's FIFO queues cannot offer. Cancellation
// applies to gated model-path jobs; the request is located after the
// channel latency, so a request that already completed is a no-op.
func (c *ClientConn) Cancel(reqID uint64) {
	c.d.env.After(c.d.cfg.ShmLatency, func() { c.d.cancel(reqID) })
}

// inflightKernel tracks one dispatched-but-unfinished kernel in ModeGated.
type inflightKernel struct {
	job       *Job
	spec      *gpu.KernelSpec
	placed    int
	completed int
	// op links back to the waitlist entry for adaptor-backed jobs (nil for
	// the standard model path).
	op *wlOp
	// members holds every job riding a batched launch (empty for an
	// unbatched kernel; members[0] == job). Completion fans out to each
	// member in formation order.
	members []*Job
	// sentAt stamps the dispatch (batch span tracing); actBytes is the
	// activation scratch reserved for the batch's members (vram gauge).
	sentAt   sim.Time
	actBytes int64
	// launch is the device-side Launch this record tracks, recycled with
	// the record when its fate is certain (LaunchDone).
	launch *gpu.Launch
}

// newInflight returns a zeroed inflight record, reusing a pooled one when
// available (its members slice keeps its capacity for batch reuse).
func (d *Dispatcher) newInflight() *inflightKernel {
	if n := len(d.flFree); n > 0 {
		fl := d.flFree[n-1]
		d.flFree = d.flFree[:n-1]
		return fl
	}
	return &inflightKernel{}
}

// putInflight retires an inflight record to the pool. The Launch is
// recycled alongside only when Recycle vouches for it (LaunchDone); a
// launch reconciled by the watchdog while the device may still hold it is
// left to the garbage collector.
func (d *Dispatcher) putInflight(fl *inflightKernel) {
	if fl.launch != nil && fl.launch.Recycle() {
		d.launchFree = append(d.launchFree, fl.launch)
	}
	members := fl.members
	for i := range members {
		members[i] = nil
	}
	*fl = inflightKernel{}
	if members != nil {
		fl.members = members[:0]
	}
	d.flFree = append(d.flFree, fl)
}

// newLaunch returns a zeroed Launch, pooled when available.
func (d *Dispatcher) newLaunch() *gpu.Launch {
	if n := len(d.launchFree); n > 0 {
		l := d.launchFree[n-1]
		d.launchFree = d.launchFree[:n-1]
		return l
	}
	return &gpu.Launch{}
}

// Dispatcher is the Paella service. Construct with New, register models,
// connect clients, then Start.
type Dispatcher struct {
	env    *sim.Env
	dev    *gpu.Device
	cfg    Config
	notifQ *channel.NotifQueue

	models   map[string]modelEntry
	adaptors map[string]*adaptorEntry
	clients  []*ClientConn

	wake    *sim.Cond
	awake   bool
	stopped bool

	mirror       mirror
	jobs         map[uint64]*Job // live gated model-path jobs by request id
	inflight     map[uint32]*inflightKernel
	nextKernelID uint32
	queueCursor  int
	nbuf         []channel.Notification

	// fitsFn is the dispatch-gate predicate handed to Policy.PickFit,
	// allocated once at construction: the dispatch loop runs per kernel
	// release, and a per-pass closure literal was its only steady-state
	// heap allocation.
	fitsFn func(*sched.JobEntry) bool

	// flFree and launchFree pool inflight-kernel records and device Launch
	// structs: every kernel dispatch needs one of each, and both die at
	// the matching completion notification, so steady state recirculates a
	// population bounded by the in-flight window instead of allocating.
	flFree     []*inflightKernel
	launchFree []*gpu.Launch

	// Dynamic batching state (inert unless Config.MaxBatch > 1; see
	// batch.go). batchIndex groups ready same-model, same-position jobs by
	// batch key; holds tracks the (at most one per key) job held open for
	// partners; batchSpecs caches widened kernel clones; the scratch
	// slices are reused across formations.
	batchIndex   map[batchKey]*rbtree.Tree[*Job]
	holds        map[batchKey]*Job
	batchSpecs   map[batchSpecKey]*gpu.KernelSpec
	batchScratch []*Job
	entryScratch []*sched.JobEntry

	rtCtx        *cudart.Context
	sharedStream *cudart.Stream

	// vramMgr tracks weight residency when Config.VRAM is set; pcie is the
	// shared DMA link all transfers (tensors and weight loads) then ride.
	// Both are nil in the legacy unconstrained-memory configuration.
	vramMgr *vram.Manager
	pcie    *cudart.PCIeLink
	// loads tracks in-progress and memory-starved weight loads by model.
	loads map[string]*loadState
	// failNextLoad holds injected load-failure budgets by model: each unit
	// makes the next completing weight load for that model fail (fault
	// injection via FailNextLoad).
	failNextLoad map[string]int
	// copies prices the dispatcher's DMA transfers: analytic copies and
	// cold-load estimates, and every transfer on pcie, which shares it —
	// so fault injection's brownout factor lives here alone.
	copies cudart.CopyModel
	// pressureHeld tracks VRAM blocks held by injected memory pressure.
	pressureHeld int

	collector *metrics.Collector
	stats     Stats

	// rec is the structured tracing recorder (nil = disabled). Job
	// lifecycle phases are emitted as async spans keyed by request id under
	// traceProc; admissions and scheduling decisions are instants on their
	// own tracks; readyC/inflightC/liveC are the dispatcher's load
	// counters.
	rec        *trace.Recorder
	traceProc  trace.ProcID
	admitTrack trace.TrackID
	schedTrack trace.TrackID
	readyC     trace.CounterID
	inflightC  trace.CounterID
	liveC      trace.CounterID

	// mt is the windowed telemetry meter (nil = disabled), the recorder's
	// aggregate sibling: load gauges sampled at the traceCounters sites,
	// the retry counter, the batch-width histogram, and per-request
	// records fed at completion (internal/telemetry).
	mt         *telemetry.Meter
	mtLive     telemetry.MetricID
	mtInflight telemetry.MetricID
	mtReady    telemetry.MetricID
	mtRetries  telemetry.MetricID
	mtBatchW   telemetry.MetricID
}

// loadState is one model's cold-start bookkeeping: the jobs waiting for
// its weights, and whether the load is blocked on free VRAM.
type loadState struct {
	waiters []*Job
	// pending marks a load that could not begin because every candidate
	// eviction victim was pinned; it is retried when a job finishes (the
	// only event that unpins memory) or when injected pressure releases.
	pending bool
	// attempts counts failed transfer attempts (fault injection); retries
	// back off exponentially from loadRetryBase.
	attempts int
}

// Stats counts dispatcher activity.
type Stats struct {
	Admitted      uint64
	Completed     uint64
	KernelsSent   uint64
	CopiesSent    uint64
	NotifsHandled uint64
	LoopWakeups   uint64
	// Failed counts admitted jobs that terminated with a typed error.
	Failed uint64
	// KernelTimeouts counts watchdog firings; KernelRetries counts the
	// subset that re-dispatched the kernel; StaleNotifs counts notifications
	// ignored in fault-tolerant mode (late records for reconciled kernels,
	// duplicate block counts).
	KernelTimeouts uint64
	KernelRetries  uint64
	StaleNotifs    uint64
	// LoadRetries and LoadFailures count weight-load recovery activity.
	LoadRetries  uint64
	LoadFailures uint64
	// Batches counts batched kernel launches (width ≥ 2); BatchedJobs sums
	// their member counts; BatchHolds counts batch-formation windows armed
	// on a lone ready kernel. All zero when batching is off.
	Batches     uint64
	BatchedJobs uint64
	BatchHolds  uint64
	// BusyNs is the dispatcher core's cumulative busy time (the paper's
	// single-core claim is checkable: BusyNs / elapsed is its utilization).
	BusyNs sim.Time
}

// New builds a dispatcher bound to a device. In ModeGated the device must
// have been created with the dispatcher's notification queue — use
// NewWithDevice for the common case.
func New(env *sim.Env, dev *gpu.Device, notifQ *channel.NotifQueue, cfg Config) *Dispatcher {
	if cfg.Mode == ModeGated && cfg.Policy == nil {
		panic("core: ModeGated requires a policy")
	}
	d := &Dispatcher{
		env:          env,
		dev:          dev,
		cfg:          cfg,
		notifQ:       notifQ,
		models:       make(map[string]modelEntry),
		wake:         sim.NewCond(env),
		jobs:         make(map[uint64]*Job),
		inflight:     make(map[uint32]*inflightKernel),
		nbuf:         make([]channel.Notification, 256),
		collector:    metrics.NewCollector(),
		failNextLoad: make(map[string]int),
		copies:       cudart.NewCopyModel(runtimeConfig()),
	}
	d.mirror = newMirror(dev.Config(), cfg.OvershootBlocks)
	// The gate predicate is allocated once: kernels of a cold model cannot
	// run (weights still paging in), jobs held for batch formation are
	// skipped (fitting partners will release them), and everything else is
	// gated by the occupancy mirror. The scan skips non-fitting jobs so
	// warm work keeps the device busy.
	d.fitsFn = func(e *sched.JobEntry) bool {
		j := e.Payload.(*Job)
		if !d.ModelResident(j.Req.Model) {
			return false
		}
		if d.cfg.MaxBatch > 1 && j.held {
			return false
		}
		return d.mirror.CanAccept(j.peekKernel())
	}
	if cfg.MaxBatch > 1 {
		d.batchIndex = make(map[batchKey]*rbtree.Tree[*Job])
		d.holds = make(map[batchKey]*Job)
		d.batchSpecs = make(map[batchSpecKey]*gpu.KernelSpec)
		d.batchScratch = make([]*Job, 0, cfg.MaxBatch)
		d.entryScratch = make([]*sched.JobEntry, 0, cfg.MaxBatch)
	}
	// Track SM retirements: the occupancy mirror must gate against the
	// surviving capacity, or the dispatcher would keep over-releasing work
	// the device can no longer absorb.
	dev.OnTopologyChange(func(online int) {
		d.mirror.rescale(dev.Config(), online)
		d.wakeNow()
	})
	if rec := trace.FromEnv(env); rec != nil {
		d.rec = rec
		d.traceProc = rec.Process("dispatcher")
		d.admitTrack = rec.Thread(d.traceProc, "admit")
		d.schedTrack = rec.Thread(d.traceProc, "sched")
		d.readyC = rec.Counter(d.traceProc, "ready jobs")
		d.inflightC = rec.Counter(d.traceProc, "inflight kernels")
		d.liveC = rec.Counter(d.traceProc, "live jobs")
	}
	if mt := telemetry.FromEnv(env); mt != nil {
		d.mt = mt
		d.mtLive = mt.Gauge("core/live_jobs")
		d.mtInflight = mt.Gauge("core/inflight_kernels")
		d.mtReady = mt.Gauge("core/ready_jobs")
		d.mtRetries = mt.Counter("core/kernel_retries")
		d.mtBatchW = mt.Histogram("core/batch_width")
	}
	if cfg.VRAM != nil {
		d.vramMgr = vram.MustNewManager(*cfg.VRAM)
		d.pcie = cudart.NewPCIeLink(env, &d.copies)
		d.loads = make(map[string]*loadState)
		if d.rec != nil {
			d.vramMgr.AttachTrace(d.rec, d.traceProc)
		}
		d.vramMgr.AttachMeter(d.mt)
	}
	// The ablation modes drive the device through an unhooked CUDA
	// runtime.
	d.rtCtx = cudart.NewContext(env, dev, runtimeConfig())
	if cfg.Mode == ModeSingleStream {
		d.sharedStream = d.rtCtx.StreamCreate()
	}
	if notifQ != nil {
		dev.OnNotifPosted(d.wakeNow)
	}
	return d
}

// NewWithDevice builds the notification queue, device and dispatcher
// together (the common setup path).
func NewWithDevice(env *sim.Env, devCfg gpu.Config, cfg Config) *Dispatcher {
	cap := cfg.NotifQCapacity
	if cap == 0 {
		cap = 1 << 14
	}
	nq := channel.NewNotifQueue(cap)
	dev := gpu.NewDevice(env, devCfg, nq)
	return New(env, dev, nq, cfg)
}

// Env returns the simulation environment.
func (d *Dispatcher) Env() *sim.Env { return d.env }

// Device returns the GPU the dispatcher manages.
func (d *Dispatcher) Device() *gpu.Device { return d.dev }

// Collector returns the per-request metrics collector.
func (d *Dispatcher) Collector() *metrics.Collector { return d.collector }

// Stats returns a snapshot of dispatcher counters.
func (d *Dispatcher) Stats() Stats { return d.stats }

// RegisterModel adds a compiled model to the library of launchable jobs
// (§5.1). The model must have been profiled (for SRPT estimates).
func (d *Dispatcher) RegisterModel(ins *compiler.Instrumented) error {
	if ins.Profile == nil {
		return fmt.Errorf("core: model %q registered without a profile", ins.Model.Name)
	}
	if _, dup := d.models[ins.Model.Name]; dup {
		return fmt.Errorf("core: model %q already registered", ins.Model.Name)
	}
	for _, k := range ins.Model.Kernels {
		if !k.FitsSM(d.dev.Config().SM) {
			return fmt.Errorf("core: model %q kernel %q can never fit an SM of %s",
				ins.Model.Name, k.Name, d.dev.Config().Name)
		}
	}
	if d.vramMgr != nil {
		if err := d.vramMgr.Register(ins.Model.Name, int64(ins.Model.WeightBytes)); err != nil {
			return fmt.Errorf("core: %w", err)
		}
	}
	d.models[ins.Model.Name] = modelEntry{ins: ins, ops: buildOps(ins, d.cfg.Mode == ModeGated)}
	return nil
}

// VRAM returns the residency manager, or nil when device memory is
// unconstrained.
func (d *Dispatcher) VRAM() *vram.Manager { return d.vramMgr }

// PCIe returns the shared DMA link, or nil in the legacy analytic
// configuration.
func (d *Dispatcher) PCIe() *cudart.PCIeLink { return d.pcie }

// ColdLoadDuration returns the modeled uncontended host→device time to
// page the given weight bytes onto this device, with any injected
// brownout factor. The cluster autoscaler uses it to price replica
// cold-starts even on unconstrained-memory fleets.
func (d *Dispatcher) ColdLoadDuration(bytes int64) sim.Time {
	if bytes <= 0 {
		return 0
	}
	return d.copies.Duration(int(bytes))
}

// ModelResident reports whether the named model's weights are in device
// memory. Always true when memory is unconstrained, and for models the
// residency manager does not track (adaptor jobs).
func (d *Dispatcher) ModelResident(name string) bool {
	if d.vramMgr == nil || !d.vramMgr.Registered(name) {
		return true
	}
	return d.vramMgr.Resident(name)
}

// tolerant reports whether the dispatcher runs with relaxed fail-stop
// assertions (the watchdog is armed for fault injection).
func (d *Dispatcher) tolerant() bool { return d.cfg.KernelTimeout > 0 }

// FailNextLoad arms one injected failure for the named model's next
// completing weight load (fault injection). The dispatcher reacts with
// bounded exponential-backoff retries; see loadDone.
func (d *Dispatcher) FailNextLoad(model string) { d.failNextLoad[model]++ }

// SetPCIeFactor scales the effective PCIe bandwidth (fault injection's
// brownout): both the shared DMA link (when device memory is constrained)
// and the analytic memcpy path honour it. Factor 1 restores health.
func (d *Dispatcher) SetPCIeFactor(f float64) {
	if d.pcie != nil {
		d.pcie.SetBandwidthFactor(f)
		return
	}
	d.copies.SetFactor(f)
}

// InjectVRAMPressure carves the given bytes out of the device-memory budget
// (fault injection: a co-tenant allocation spike), evicting LRU unpinned
// models as needed. Returns the bytes actually taken (less when most of the
// budget is pinned); a no-op returning zero when memory is unconstrained.
func (d *Dispatcher) InjectVRAMPressure(bytes int64) int64 {
	if d.vramMgr == nil || bytes <= 0 {
		return 0
	}
	blockBytes := d.vramMgr.CapacityBytes() / int64(d.vramMgr.TotalBlocks())
	blocks := int((bytes + blockBytes - 1) / blockBytes)
	got := d.vramMgr.ReservePressure(blocks, d.env.Now())
	d.pressureHeld += got
	return int64(got) * blockBytes
}

// ReleaseVRAMPressure returns all injected pressure to the budget and
// retries loads that were parked on memory starvation.
func (d *Dispatcher) ReleaseVRAMPressure() {
	if d.vramMgr == nil || d.pressureHeld == 0 {
		return
	}
	d.vramMgr.ReleasePressure(d.pressureHeld, d.env.Now())
	d.pressureHeld = 0
	d.retryPendingLoads()
	d.wakeNow()
}

// Model returns a registered model.
func (d *Dispatcher) Model(name string) (*compiler.Instrumented, bool) {
	m, ok := d.models[name]
	return m.ins, ok
}

// Connect allocates a client's shared-memory region (request ring plus
// completion hooks) and returns the connection handle.
func (d *Dispatcher) Connect() *ClientConn {
	cap := d.cfg.RingCapacity
	if cap == 0 {
		cap = 1024
	}
	c := &ClientConn{
		ID:   len(d.clients),
		ring: channel.NewSPSC[Request](cap),
		d:    d,
	}
	d.clients = append(d.clients, c)
	return c
}

// Start launches the dispatcher loop on its dedicated core.
func (d *Dispatcher) Start() {
	d.env.Spawn("paella-dispatcher", d.loop)
}

// Stop makes the loop exit at its next wakeup (test hygiene).
func (d *Dispatcher) Stop() {
	d.stopped = true
	d.wakeNow()
}

func (d *Dispatcher) wakeNow() {
	if !d.awake {
		d.wake.Broadcast()
	}
}

// charge burns dispatcher-core time and accounts it.
func (d *Dispatcher) charge(p *sim.Proc, cost sim.Time) {
	if cost <= 0 {
		return
	}
	d.stats.BusyNs += cost
	p.Sleep(cost)
}

// traceCounters samples the dispatcher's load counters (live jobs,
// in-flight kernels, policy ready-queue length) into the trace recorder
// and the telemetry meter. Change-deduplication in the recorder and
// window aggregation in the meter keep repeated calls cheap; with both
// disabled the call is a single branch.
func (d *Dispatcher) traceCounters() {
	if d.rec == nil && d.mt == nil {
		return
	}
	now := d.env.Now()
	live := float64(d.stats.Admitted - d.stats.Completed - d.stats.Failed)
	if d.rec != nil {
		d.rec.Sample(d.liveC, "value", now, live)
		d.rec.Sample(d.inflightC, "value", now, float64(len(d.inflight)))
		if d.cfg.Policy != nil {
			d.rec.Sample(d.readyC, "value", now, float64(d.cfg.Policy.Len()))
		}
	}
	if d.mt != nil {
		d.mt.Set(d.mtLive, now, live)
		d.mt.Set(d.mtInflight, now, float64(len(d.inflight)))
		if d.cfg.Policy != nil {
			d.mt.Set(d.mtReady, now, float64(d.cfg.Policy.Len()))
		}
	}
}

// loop is the dispatcher's single-core main loop: poll client rings
// round-robin, fold in GPU notifications, then dispatch while the gating
// condition holds. Every action charges its CPU cost via Sleep, so the
// dispatcher saturates realistically (Figure 9).
func (d *Dispatcher) loop(p *sim.Proc) {
	d.awake = true
	for !d.stopped {
		progressed := false
		// 1. Client→Paella channel: round-robin ring polling (§5.1).
		for _, c := range d.clients {
			for {
				req, ok := c.ring.Pop()
				if !ok {
					break
				}
				d.charge(p, d.cfg.AdmitCost)
				d.admit(p, req)
				progressed = true
			}
		}
		// 2. Paella↔GPU channel: drain instrumented notifications (§5.2).
		if d.notifQ != nil {
			for {
				n := d.notifQ.Poll(d.nbuf)
				if n == 0 {
					break
				}
				d.charge(p, pollCost+sim.Time(n)*perNotifCost)
				for i := 0; i < n; i++ {
					d.applyNotif(d.nbuf[i])
				}
				progressed = true
			}
		}
		// 3. Software-defined dispatch (§6): release the policy's best
		// fitting job, scanning past unplaceable candidates for work
		// conservation. A saturated mirror refuses every kernel, so the
		// scan is skipped outright: PickFit only reads state, and a nil
		// pick charges no time.
		if d.cfg.Mode == ModeGated {
			for !d.mirror.Saturated() {
				e := d.cfg.Policy.PickFit(d.fitsFn, dispatchScan)
				if e == nil {
					break
				}
				d.charge(p, d.cfg.SchedDelay+d.cfg.DispatchCost)
				j := e.Payload.(*Job)
				if !j.inPolicy {
					// Charging the dispatch cost yields the loop, and a
					// callback in that window (client disconnect, cancel)
					// may have failed the job and pulled it from the
					// policy. Skip it; its terminal path is already set.
					progressed = true
					continue
				}
				if d.cfg.MaxBatch > 1 && j.wl == nil && d.tryBatch(j) {
					// Dispatched as a batched launch, or held open for
					// partners; either way the head was consumed.
					progressed = true
					continue
				}
				d.dispatchKernel(j)
				progressed = true
			}
		}
		if !progressed {
			d.awake = false
			d.stats.LoopWakeups++
			p.WaitCond(d.wake)
			d.awake = true
		}
	}
}
