// Package paella is the public API of the Paella reproduction: a
// low-latency model serving system with software-defined GPU scheduling
// (Ng, Demoulin, Liu — SOSP 2023), built on a deterministic virtual-time
// GPU simulator.
//
// A Server owns a simulated GPU, the Paella dispatcher, and a library of
// deployed models. Clients connect to the server and submit inference
// requests over zero-copy shared-memory rings; the dispatcher instruments
// every kernel, mirrors GPU occupancy from the notification channel, and
// releases kernels one at a time under a pluggable scheduling policy
// (SRPT + deficit-counter fairness by default).
//
// Everything runs on a virtual clock: client logic is written as
// simulation processes (Proc) that block on virtual time, and a run is
// exactly reproducible. See examples/quickstart for an end-to-end tour.
package paella

import (
	"fmt"

	"paella/internal/client"
	"paella/internal/compiler"
	"paella/internal/core"
	"paella/internal/cudart"
	"paella/internal/gpu"
	"paella/internal/metrics"
	"paella/internal/model"
	"paella/internal/remote"
	"paella/internal/sched"
	"paella/internal/sim"
)

// Re-exported core types. Aliases keep the internal packages as the single
// source of truth while letting users name everything through this
// package.
type (
	// Time is virtual time in nanoseconds.
	Time = sim.Time
	// Proc is a simulation process; client code runs inside one.
	Proc = sim.Proc
	// GPUConfig describes the simulated device.
	GPUConfig = gpu.Config
	// SMResources are per-SM physical limits (paper Table 1).
	SMResources = gpu.SMResources
	// KernelSpec is a CUDA kernel's execution configuration.
	KernelSpec = gpu.KernelSpec
	// Model is a deployable inference model (kernel graph + I/O sizes).
	Model = model.Model
	// Policy orders runnable jobs for the dispatcher (§6).
	Policy = sched.Policy
	// JobRecord is the full timeline of one completed request.
	JobRecord = metrics.JobRecord
	// Protocol selects the client result-wakeup mechanism (§5.3).
	Protocol = client.Protocol
	// Adaptor is a Figure 8-style job definition: Run issues the job's
	// CUDA operations against a hooked runtime context.
	Adaptor = core.Adaptor
	// AdaptorFunc adapts a plain function to Adaptor.
	AdaptorFunc = core.AdaptorFunc
	// Runtime is the CUDA runtime context handed to adaptors.
	Runtime = cudart.Context
	// Stream is a (virtual) CUDA stream.
	Stream = cudart.Stream
	// LaunchOpts carries optional kernel-launch identity fields.
	LaunchOpts = cudart.LaunchOpts
)

// Memcpy directions for adaptor code.
const (
	HostToDevice = cudart.HostToDevice
	DeviceToHost = cudart.DeviceToHost
)

// Virtual-time duration units.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Client wakeup protocols.
const (
	// Hybrid blocks on the almost-finished interrupt then polls (default).
	Hybrid = client.ProtocolHybrid
	// Polling spins for completions (lowest latency, one core per client).
	Polling = client.ProtocolPolling
	// Socket blocks on a socket push (no polling CPU, extra latency).
	Socket = client.ProtocolSocket
)

// TeslaT4 returns the paper's main evaluation GPU (40 SMs).
func TeslaT4() GPUConfig { return gpu.TeslaT4() }

// TeslaP100 returns the paper's secondary validation GPU (56 SMs).
func TeslaP100() GPUConfig { return gpu.TeslaP100() }

// A100Like returns an Ampere-class datacenter GPU (108 SMs) for the §8
// scaling discussion.
func A100Like() GPUConfig { return gpu.A100Like() }

// GTX1660Super returns the Figure 2 GPU (22 SMs, 32 hardware queues).
func GTX1660Super() GPUConfig { return gpu.GTX1660Super() }

// SRPTDeficit returns the paper's default policy (§6): SRPT bounded by
// per-client deficit counters with the given fairness threshold.
func SRPTDeficit(threshold float64) Policy { return sched.NewPaella(threshold) }

// SRPT returns shortest-remaining-processing-time scheduling.
func SRPT() Policy { return sched.NewSRPT() }

// SJF returns shortest-job-first scheduling by total profiled time.
func SJF() Policy { return sched.NewSJF() }

// FIFO returns oldest-first scheduling (the hardware's effective policy).
func FIFO() Policy { return sched.NewFIFO() }

// RoundRobin returns fair round-robin scheduling across clients.
func RoundRobin() Policy { return sched.NewRR() }

// EDF returns earliest-deadline-first scheduling over request deadlines.
func EDF() Policy { return sched.NewEDF() }

// Zoo returns the paper's Table 2 model zoo.
func Zoo() []*Model { return model.Table2Models() }

// ZooModel generates one zoo model by name (Table 2 or Figure 3 set).
func ZooModel(name string) (*Model, error) { return model.ByName(name) }

// ServerConfig configures a Server.
type ServerConfig struct {
	// GPU selects the simulated device (default: Tesla T4).
	GPU GPUConfig
	// Policy is the dispatcher's scheduling policy (default:
	// SRPT + deficit fairness with the paper's threshold of 10000).
	Policy Policy
	// OvershootBlocks is the §6 "B" budget (default 96).
	OvershootBlocks int
	// ProfileRuns is how many profiling executions Deploy performs
	// (default 2).
	ProfileRuns int
}

// Server is a Paella serving instance on its own virtual timeline.
type Server struct {
	env  *sim.Env
	disp *core.Dispatcher
	cfg  ServerConfig
}

// NewServer builds a server with the paper's default configuration.
func NewServer(cfg ServerConfig) *Server {
	if cfg.GPU.NumSMs == 0 {
		cfg.GPU = gpu.TeslaT4()
	}
	if cfg.Policy == nil {
		cfg.Policy = sched.NewPaella(sched.DefaultFairnessThreshold)
	}
	if cfg.ProfileRuns <= 0 {
		cfg.ProfileRuns = 2
	}
	env := sim.NewEnv()
	dcfg := core.DefaultConfig(cfg.Policy)
	if cfg.OvershootBlocks > 0 {
		dcfg.OvershootBlocks = cfg.OvershootBlocks
	}
	d := core.NewWithDevice(env, cfg.GPU, dcfg)
	d.Start()
	return &Server{env: env, disp: d, cfg: cfg}
}

// Deploy compiles (instruments + profiles) a model and registers it with
// the dispatcher — the paper's §5.1 submission flow.
func (s *Server) Deploy(m *Model) error {
	ins, err := compiler.Compile(m, compiler.DefaultConfig(), s.cfg.GPU, s.cfg.ProfileRuns)
	if err != nil {
		return fmt.Errorf("paella: deploy %q: %w", m.Name, err)
	}
	return s.disp.RegisterModel(ins)
}

// DeployAdaptor compiles the model for scheduling estimates and registers
// a custom Figure 8-style adaptor under the model's name: the adaptor's
// Run decides the actual operation stream (it may use multiple virtual
// CUDA streams; the dispatcher's waitlists enforce stream semantics and
// schedule every kernel individually, §4.2/§6).
func (s *Server) DeployAdaptor(m *Model, a Adaptor) error {
	ins, err := compiler.Compile(m, compiler.DefaultConfig(), s.cfg.GPU, s.cfg.ProfileRuns)
	if err != nil {
		return fmt.Errorf("paella: deploy adaptor %q: %w", m.Name, err)
	}
	return s.disp.RegisterAdaptor(m.Name, ins, a)
}

// MustDeploy is Deploy for known-good models; it panics on error.
func (s *Server) MustDeploy(m *Model) {
	if err := s.Deploy(m); err != nil {
		panic(err)
	}
}

// Client is an inference client bound to this server.
type Client struct {
	inner *client.Client
}

// NewClient connects a client using the given wakeup protocol.
func (s *Server) NewClient(p Protocol) *Client {
	return &Client{inner: client.New(s.env, s.disp, p)}
}

// Predict submits an inference request and returns its id (§5.1).
func (c *Client) Predict(p *Proc, modelName string) uint64 {
	return c.inner.Predict(p, modelName)
}

// ReadResult blocks until a result is ready and returns its request id.
func (c *Client) ReadResult(p *Proc) uint64 { return c.inner.ReadResult(p) }

// TryReadResult is the non-blocking read (EAGAIN semantics).
func (c *Client) TryReadResult() (uint64, bool) { return c.inner.TryReadResult() }

// Cancel aborts an outstanding request; in-flight kernels drain (thread
// blocks cannot be preempted) and the rest of the job is dropped.
func (c *Client) Cancel(id uint64) { c.inner.Cancel(id) }

// CPUUtilization returns the client's busy-CPU fraction so far.
func (c *Client) CPUUtilization() float64 { return c.inner.CPU().Utilization() }

// Go spawns client logic as a simulation process.
func (s *Server) Go(name string, fn func(p *Proc)) { s.env.Spawn(name, fn) }

// At schedules fn at an absolute virtual time.
func (s *Server) At(t Time, fn func()) { s.env.At(t, fn) }

// Run executes the simulation until no work remains.
func (s *Server) Run() { s.env.Run() }

// RunFor executes the simulation for a bounded virtual duration.
func (s *Server) RunFor(d Time) { s.env.RunFor(d) }

// Now returns the current virtual time.
func (s *Server) Now() Time { return s.env.Now() }

// Records returns the per-request completion records collected so far.
func (s *Server) Records() []JobRecord { return s.disp.Collector().Records() }

// P99 returns the 99th-percentile job completion time so far.
func (s *Server) P99() Time { return s.disp.Collector().P99() }

// Throughput returns completed requests per virtual second so far.
func (s *Server) Throughput() float64 { return s.disp.Collector().Throughput() }

// GPUUtilization returns the device's average thread-slot occupancy.
func (s *Server) GPUUtilization() float64 { return s.disp.Device().Utilization() }

// NetConfig models the network for remote inference (§5.1's extension).
type NetConfig = remote.NetConfig

// DefaultNet returns a 100GbE kernel-bypass network model.
func DefaultNet() NetConfig { return remote.DefaultNet() }

// RemoteClient submits inference requests from across a network: a local
// gateway process forwards them into the dispatcher's shared-memory
// channels (§5.1).
type RemoteClient struct {
	inner *remote.Client
}

// NewRemoteClient connects a remote client through a fresh gateway.
func (s *Server) NewRemoteClient(net NetConfig) *RemoteClient {
	gw := remote.NewGateway(s.env, s.disp, net)
	return &RemoteClient{inner: remote.NewClient(s.env, gw)}
}

// Predict submits a remote request with explicit tensor sizes (the input
// crosses the wire before reaching the GPU).
func (c *RemoteClient) Predict(p *Proc, modelName string, inputBytes, outputBytes int) uint64 {
	return c.inner.Predict(p, modelName, inputBytes, outputBytes)
}

// Wait blocks until the response for id has fully arrived.
func (c *RemoteClient) Wait(p *Proc, id uint64) { c.inner.Wait(p, id) }

// SplitMIG slices a device into static MIG partitions (§8); build one
// Server per partition for strongly isolated tenants.
func SplitMIG(cfg GPUConfig, smsPerPart []int) ([]GPUConfig, error) {
	return gpu.SplitMIG(cfg, smsPerPart)
}
