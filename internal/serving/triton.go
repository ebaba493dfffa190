package serving

import (
	"paella/internal/cudart"
	"paella/internal/gpu"
	"paella/internal/metrics"
	"paella/internal/model"
	"paella/internal/sim"
	"paella/internal/telemetry"
	"paella/internal/workload"
)

// FrontendCosts models an RPC-based serving frontend's per-request
// overheads (§2.2): tensor serialization on the client, the RPC itself,
// deserialization and request handling on the server, and the mirrored
// response path.
type FrontendCosts struct {
	// SerializePerByte is charged per input/output byte on each side
	// (marshal on one end, unmarshal on the other).
	SerializePerByte float64 // ns per byte
	// RPCFixed is the fixed per-message transport cost, each way.
	RPCFixed sim.Time
	// ServerProc is the server-side request handling cost (queueing,
	// scheduling, backend hand-off), charged once per request.
	ServerProc sim.Time
}

// TritonCosts returns frontend constants calibrated so a single
// MobileNetV2 request sees roughly the paper's Figure 3 overhead (~60% of
// its 1.67ms execution time).
func TritonCosts() FrontendCosts {
	return FrontendCosts{
		SerializePerByte: 0.55,
		RPCFixed:         110 * sim.Microsecond,
		ServerProc:       120 * sim.Microsecond,
	}
}

// ClockworkCosts returns the (leaner, Boost-Asio-based) Clockwork frontend
// constants: no gRPC, but a controller hop per request.
func ClockworkCosts() FrontendCosts {
	return FrontendCosts{
		SerializePerByte: 0.10,
		RPCFixed:         35 * sim.Microsecond,
		ServerProc:       1100 * sim.Microsecond, // controller + worker split
	}
}

// tritonSystem models NVIDIA Triton with a TVM backend: gRPC frontend,
// FIFO per-model scheduler, one execution instance per model (the default
// instance-group configuration), job-granularity dispatch.
type tritonSystem struct {
	name      string
	costs     FrontendCosts
	exclusive bool // Clockwork: one model execution at a time, globally
	// Dynamic batching (§2.2, §8): when batchWindow > 0, the per-model
	// scheduler coalesces up to maxBatch queued requests, waiting up to
	// batchWindow after the first arrival. Batched execution amortizes
	// kernel launches (one sequence for the whole batch, durations scaled
	// by batchEfficiency×n) at the cost of critical-path waiting.
	batchWindow sim.Time
	maxBatch    int

	env       *sim.Env
	nextID    uint64
	dev       *gpu.Device
	ctx       *cudart.Context
	opts      Options
	collector *metrics.Collector
	mt        *telemetry.Meter

	// per-model executor queues (Triton), or one global queue (Clockwork).
	queues map[string]*execQueue
	global *execQueue
}

type execQueue struct {
	pending []*tritonJob
	busy    bool
	// windowArmed marks a pending batch-window timer (batching mode);
	// windowGen invalidates stale timers once a batch dispatches. Without
	// it, a full batch firing inside an armed window left windowArmed stuck
	// until the orphaned timer landed — later arrivals inherited a
	// mis-timed (possibly already-expired) window instead of a fresh one.
	windowArmed bool
	windowGen   uint64
}

type tritonJob struct {
	m   *model.Model
	rec metrics.JobRecord
}

// batchEfficiency is the per-request execution-time scale under batching
// (batch n executes in n×batchEfficiency of one request's time).
const batchEfficiency = 0.75

// NewTritonBatching returns Triton with dynamic batching enabled.
func NewTritonBatching(window sim.Time, maxBatch int) System {
	if maxBatch < 1 {
		maxBatch = 1
	}
	return &tritonSystem{
		name:        "Triton-batch",
		costs:       TritonCosts(),
		batchWindow: window,
		maxBatch:    maxBatch,
	}
}

func (s *tritonSystem) Name() string { return s.name }

func (s *tritonSystem) Setup(env *sim.Env, opts Options, numClients int) error {
	s.env = env
	s.opts = opts
	s.dev = gpu.NewDevice(env, opts.DevCfg, nil)
	s.ctx = cudart.NewContext(env, s.dev, cudart.DefaultConfig())
	s.collector = metrics.NewCollector()
	s.mt = telemetry.FromEnv(env)
	s.nextID = 0
	s.queues = make(map[string]*execQueue)
	s.global = &execQueue{}
	return nil
}

func (s *tritonSystem) Collector() *metrics.Collector { return s.collector }

func (s *tritonSystem) queueFor(name string) *execQueue {
	if s.exclusive {
		return s.global
	}
	q, ok := s.queues[name]
	if !ok {
		q = &execQueue{}
		s.queues[name] = q
	}
	return q
}

// Submit models the client→server half of the RPC: serialization of the
// input tensor, the wire, deserialization and request handling, then
// enqueueing at the model's executor.
func (s *tritonSystem) Submit(req workload.Request) {
	m, err := findModel(s.opts, req.Model)
	if err != nil {
		panic(err)
	}
	j := &tritonJob{m: m}
	s.nextID++
	j.rec = metrics.JobRecord{
		ID:     s.nextID,
		Model:  req.Model,
		Client: req.Client,
		Submit: s.env.Now(),
	}
	inCost := sim.Time(float64(m.InputBytes)*s.costs.SerializePerByte)*2 + // ser + deser
		s.costs.RPCFixed + s.costs.ServerProc
	j.rec.FrameworkNs += inCost
	s.env.After(inCost, func() {
		j.rec.Admit = s.env.Now()
		q := s.queueFor(req.Model)
		q.pending = append(q.pending, j)
		s.pump(q)
	})
}

// pump starts the next queued work if the executor is idle (FIFO,
// one-at-a-time per model — Triton's default TVM instance group). With
// batching enabled it either fires a full batch immediately or arms the
// batch-window timer.
func (s *tritonSystem) pump(q *execQueue) {
	if q.busy || len(q.pending) == 0 {
		return
	}
	if s.batchWindow > 0 && s.maxBatch > 1 && len(q.pending) < s.maxBatch {
		// Not enough for a full batch: wait out the window from the first
		// queued request, then run whatever accumulated.
		if !q.windowArmed {
			q.windowArmed = true
			gen := q.windowGen
			s.env.After(s.batchWindow, func() {
				if q.windowGen != gen {
					return // this window's batch already dispatched
				}
				q.windowArmed = false
				s.runBatch(q)
			})
		}
		return
	}
	s.runBatch(q)
}

// runBatch executes up to maxBatch queued jobs as one batched model run.
func (s *tritonSystem) runBatch(q *execQueue) {
	if q.busy || len(q.pending) == 0 {
		return
	}
	q.busy = true
	n := 1
	if s.maxBatch > 1 {
		n = min(len(q.pending), s.maxBatch)
	}
	batch := q.pending[:n:n]
	q.pending = q.pending[n:]
	// The dispatched batch consumes any window armed for its head; the next
	// arrival (or leftover pending work) gets a fresh full window.
	q.windowGen++
	q.windowArmed = false
	m := batch[0].m
	// Batched execution scales kernel time by n×batchEfficiency and
	// transfers n tensors per copy.
	scale := 1.0
	if n > 1 {
		scale = float64(n) * batchEfficiency
	}
	s.env.Spawn("triton-exec", func(p *sim.Proc) {
		now := s.env.Now()
		for _, j := range batch {
			j.rec.FirstDispatch = now
		}
		stream := s.ctx.StreamCreate()
		if m.InputBytes > 0 {
			stream.MemcpyAsync(p, cudart.HostToDevice, m.InputBytes*n)
		}
		for _, ki := range m.Seq {
			spec := m.Kernels[ki]
			if n > 1 {
				scaled := *spec
				scaled.BlockDuration = sim.Time(float64(spec.BlockDuration) * scale)
				spec = &scaled
			}
			stream.LaunchKernel(p, spec, cudart.LaunchOpts{JobTag: m.Name})
			// Launch-call gaps are scheduling/dispatch overhead under the
			// paper's accounting (host time not spent executing kernels).
			for _, j := range batch {
				j.rec.SchedNs += 6 * sim.Microsecond / sim.Time(n)
			}
		}
		if !m.PinnedOutput && m.OutputBytes > 0 {
			stream.MemcpyAsync(p, cudart.DeviceToHost, m.OutputBytes*n)
		}
		stream.Synchronize(p)
		for _, j := range batch {
			j := j
			j.rec.ExecDone = s.env.Now()
			// Response path: serialize output, wire, client deserializes.
			outCost := sim.Time(float64(j.m.OutputBytes)*s.costs.SerializePerByte)*2 +
				s.costs.RPCFixed
			j.rec.FrameworkNs += outCost
			s.env.After(outCost, func() {
				j.rec.Delivered = s.env.Now()
				s.collector.Add(j.rec)
				s.mt.RecordJob(j.rec.Delivered, &j.rec)
			})
		}
		q.busy = false
		s.pump(q)
	})
}
