// Package cudart emulates the host-side CUDA runtime: contexts, streams
// (including legacy default-stream serialization), asynchronous kernel
// launches and memory copies, events, stream callbacks, and host
// synchronization.
//
// It supports two execution modes, mirroring §4.2 of the paper:
//
//   - Direct mode (baselines): every kernel launch is pushed into a device
//     hardware queue at issue time, in issue order, carrying a readiness
//     closure that encodes its stream dependencies — exactly the behaviour
//     that produces head-of-line blocking when dependent kernels sit at
//     queue heads (§2.1).
//   - Hooked mode (Paella): a LaunchHook intercepts every kernel and memcpy
//     the instant the job issues it; nothing reaches the hardware queues
//     until the Paella dispatcher releases it. Job code is identical in
//     both modes, reproducing the paper's transparent wrapper property.
//
// Host-side costs are modelled explicitly: each kernel-launch API call
// burns LaunchCallCost of the issuing process's time, stream callbacks are
// serialized on a single callback executor with per-callback overhead, and
// synchronization calls carry a fixed host cost. These constants drive the
// Figure 4 and Figure 10 reproductions.
package cudart

import (
	"fmt"
	"strconv"

	"paella/internal/gpu"
	"paella/internal/sim"
	"paella/internal/trace"
)

// MemcpyKind distinguishes transfer directions.
type MemcpyKind int

const (
	// HostToDevice transfers input tensors to GPU memory.
	HostToDevice MemcpyKind = iota
	// DeviceToHost transfers outputs back.
	DeviceToHost
	// DeviceToDevice copies within GPU memory.
	DeviceToDevice
)

// String returns the CUDA-style name of the kind.
func (k MemcpyKind) String() string {
	switch k {
	case HostToDevice:
		return "cudaMemcpyHostToDevice"
	case DeviceToHost:
		return "cudaMemcpyDeviceToHost"
	case DeviceToDevice:
		return "cudaMemcpyDeviceToDevice"
	default:
		return "cudaMemcpyUnknown"
	}
}

// Config sets the host-side cost model of the runtime.
type Config struct {
	// LaunchCallCost is the host CPU time one kernel-launch API call burns
	// in the issuing process (~5-8µs on real systems).
	LaunchCallCost sim.Time
	// MemcpyIssueCost is the host CPU time to issue an async copy.
	MemcpyIssueCost sim.Time
	// MemcpyLatency is the fixed DMA setup latency per transfer.
	MemcpyLatency sim.Time
	// PCIeBytesPerNs is the sustained transfer bandwidth (≈12 for a PCIe 3
	// x16 link delivering 12 GB/s).
	PCIeBytesPerNs float64
	// SyncCallCost is the host cost of one cudaStreamSynchronize or
	// cudaDeviceSynchronize call (syscall + spin overhead).
	SyncCallCost sim.Time
	// CallbackCost is the serialized cost of dispatching one
	// cudaStreamAddCallback callback on the runtime's callback thread —
	// notoriously expensive on real systems.
	CallbackCost sim.Time
}

// DefaultConfig returns constants calibrated to the measurements the paper
// reports for its Xeon Silver 4114 + Tesla T4 testbed.
func DefaultConfig() Config {
	return Config{
		LaunchCallCost:  6 * sim.Microsecond,
		MemcpyIssueCost: 4 * sim.Microsecond,
		MemcpyLatency:   10 * sim.Microsecond,
		PCIeBytesPerNs:  12.0,
		SyncCallCost:    8 * sim.Microsecond,
		CallbackCost:    35 * sim.Microsecond,
	}
}

// LaunchHook intercepts stream operations before they reach the hardware
// (the Paella wrapper layer of §4.2). Implementations must eventually call
// complete() exactly once per intercepted operation.
type LaunchHook interface {
	// HookKernel intercepts a kernel launch on the given virtual stream.
	HookKernel(streamID int, spec *gpu.KernelSpec, complete func())
	// HookMemcpy intercepts an async memory copy on the given virtual
	// stream.
	HookMemcpy(streamID int, kind MemcpyKind, bytes int, complete func())
}

// Context is the per-process CUDA context. All methods must run on the
// simulation event loop; blocking calls additionally require the calling
// Proc.
type Context struct {
	env    *sim.Env
	dev    *gpu.Device
	cfg    Config
	copies CopyModel

	hook LaunchHook

	streams      []*Stream
	nextKernelID uint32
	outstanding  int      // incomplete ops across all streams
	idle         []func() // deviceSynchronize waiters
	cbQueue      []func() // serialized callback executor queue
	cbRunning    bool

	// rec is the structured tracing recorder (nil = disabled); stream
	// tracks are registered lazily as streams first emit.
	rec          *trace.Recorder
	traceProc    trace.ProcID
	streamTracks []trace.TrackID
}

// NewContext creates a context for the device. The default stream (id 0)
// exists from the start.
func NewContext(env *sim.Env, dev *gpu.Device, cfg Config) *Context {
	c := &Context{env: env, dev: dev, cfg: cfg, copies: NewCopyModel(cfg)}
	if rec := trace.FromEnv(env); rec != nil {
		c.rec = rec
		c.traceProc = rec.Process("cudart")
	}
	c.streams = append(c.streams, newStream(c, 0))
	return c
}

// streamTrack returns (registering lazily) the timeline track of stream
// id. Callers guard on c.rec != nil.
func (c *Context) streamTrack(id int) trace.TrackID {
	for len(c.streamTracks) <= id {
		c.streamTracks = append(c.streamTracks,
			c.rec.Thread(c.traceProc, "stream "+strconv.Itoa(len(c.streamTracks))))
	}
	return c.streamTracks[id]
}

// SetHook installs (or clears, with nil) the interception layer. Installing
// a hook after operations have been issued is not supported.
func (c *Context) SetHook(h LaunchHook) {
	if c.outstanding != 0 {
		panic("cudart: SetHook with operations in flight")
	}
	c.hook = h
}

// DefaultStream returns stream 0, which serializes against all other
// streams per legacy CUDA semantics.
func (c *Context) DefaultStream() *Stream { return c.streams[0] }

// StreamCreate returns a new independent stream. In hooked mode this is the
// paper's overridden cudaStreamCreate: the id is virtual and will be bound
// to a real hardware queue only at dispatch time (§5.2).
func (c *Context) StreamCreate() *Stream {
	s := newStream(c, len(c.streams))
	c.streams = append(c.streams, s)
	return s
}

// NextKernelID mints the unique kernel id included in notifQ records.
func (c *Context) NextKernelID() uint32 {
	c.nextKernelID++
	return c.nextKernelID
}

// opFinished updates context-level accounting when any op completes.
func (c *Context) opFinished() {
	c.outstanding--
	if c.outstanding < 0 {
		panic("cudart: outstanding op count went negative")
	}
	if c.outstanding == 0 {
		waiters := c.idle
		c.idle = nil
		for _, fn := range waiters {
			c.env.After(0, fn)
		}
	}
}

// runCallback enqueues fn on the serialized callback executor, charging
// CallbackCost per callback (the cudaStreamAddCallback cost model).
func (c *Context) runCallback(fn func()) {
	c.cbQueue = append(c.cbQueue, fn)
	if c.cbRunning {
		return
	}
	c.cbRunning = true
	c.drainCallbacks()
}

func (c *Context) drainCallbacks() {
	if len(c.cbQueue) == 0 {
		c.cbRunning = false
		return
	}
	fn := c.cbQueue[0]
	c.cbQueue = c.cbQueue[1:]
	c.env.After(c.cfg.CallbackCost, func() {
		fn()
		c.drainCallbacks()
	})
}

// DeviceSynchronize blocks the calling process until every operation issued
// on this context has completed, charging the sync-call host cost.
func (c *Context) DeviceSynchronize(p *sim.Proc) {
	p.Sleep(c.cfg.SyncCallCost)
	for c.outstanding > 0 {
		done := sim.NewCompletion(c.env)
		c.idle = append(c.idle, done.Fire)
		p.Wait(done)
	}
}

// CopyModel is the one DMA copy-time model. A transfer costs the fixed
// setup latency plus its bytes at the sustained bandwidth scaled by a
// brownout factor (1 = healthy); a zero bandwidth prices only the latency.
// Stream memcpys, PCIeLink and the Paella dispatcher all price copies so.
type CopyModel struct {
	latency    sim.Time
	bytesPerNs float64
	factor     float64
}

// NewCopyModel returns cfg's healthy (factor 1) copy model.
func NewCopyModel(cfg Config) CopyModel {
	return CopyModel{cfg.MemcpyLatency, cfg.PCIeBytesPerNs, 1}
}

// Duration returns the uncontended time of one transfer.
func (m *CopyModel) Duration(bytes int) sim.Time {
	d := m.latency
	if m.bytesPerNs > 0 {
		d += sim.Time(float64(bytes) / (m.bytesPerNs * m.factor))
	}
	return d
}

// SetFactor sets the brownout factor (fault injection: 0.25 = a Gen-speed
// downshift to a quarter of the sustained rate). Panics unless f > 0.
func (m *CopyModel) SetFactor(f float64) {
	if f <= 0 {
		panic(fmt.Sprintf("cudart: PCIe bandwidth factor %f", f))
	}
	m.factor = f
}
