package serving

import (
	"fmt"

	"paella/internal/cudart"
	"paella/internal/gpu"
	"paella/internal/metrics"
	"paella/internal/model"
	"paella/internal/sim"
	"paella/internal/telemetry"
	"paella/internal/workload"
)

// directMode selects how clients reach the CUDA runtime without a serving
// system (the first three rows of Table 3).
type directMode int

const (
	// directSingleStream: one process, one stream — jobs fully serialize.
	directSingleStream directMode = iota
	// directMultiStream: one process, a stream per job.
	directMultiStream
	// directMPS: one CUDA context per client process (≤7), a stream per
	// job; contexts share the device's hardware queues.
	directMPS
)

// directSystem submits whole jobs straight to the CUDA runtime at arrival,
// the "traditional method of submitting all the kernels of a job together"
// (Figure 2's baseline).
type directSystem struct {
	name string
	mode directMode

	env       *sim.Env
	dev       *gpu.Device
	opts      Options
	ctxs      []*cudart.Context // per client for MPS, single otherwise
	shared    *cudart.Stream    // single-stream mode
	queue     []pendingDirect   // single-stream submission queue
	submitter *sim.Cond
	nextID    uint64
	collector *metrics.Collector
	mt        *telemetry.Meter
}

type pendingDirect struct {
	req workload.Request
	m   *model.Model
}

func (s *directSystem) Name() string { return s.name }

func (s *directSystem) Setup(env *sim.Env, opts Options, numClients int) error {
	if s.mode == directMPS && numClients > 7 {
		return fmt.Errorf("serving: MPS supports at most 7 client processes, got %d", numClients)
	}
	s.env = env
	s.opts = opts
	s.dev = gpu.NewDevice(env, opts.DevCfg, nil)
	s.collector = metrics.NewCollector()
	s.mt = telemetry.FromEnv(env)
	s.nextID = 0
	rtCfg := cudart.DefaultConfig()
	switch s.mode {
	case directMPS:
		s.ctxs = make([]*cudart.Context, numClients)
		for i := range s.ctxs {
			s.ctxs[i] = cudart.NewContext(env, s.dev, rtCfg)
		}
	default:
		s.ctxs = []*cudart.Context{cudart.NewContext(env, s.dev, rtCfg)}
	}
	if s.mode == directSingleStream {
		s.shared = s.ctxs[0].StreamCreate()
		s.submitter = sim.NewCond(env)
		env.Spawn("cuda-ss-submitter", s.submitLoop)
	}
	return nil
}

func (s *directSystem) Collector() *metrics.Collector { return s.collector }

func (s *directSystem) Submit(req workload.Request) {
	m, err := findModel(s.opts, req.Model)
	if err != nil {
		panic(err)
	}
	switch s.mode {
	case directSingleStream:
		s.queue = append(s.queue, pendingDirect{req: req, m: m})
		s.submitter.Broadcast()
	case directMultiStream:
		s.runJob(s.ctxs[0], req, m)
	case directMPS:
		s.runJob(s.ctxs[req.Client], req, m)
	}
}

// submitLoop is the single client thread of CUDA-SS: it issues queued jobs
// one at a time, in arrival order, onto the shared stream.
func (s *directSystem) submitLoop(p *sim.Proc) {
	for {
		for len(s.queue) == 0 {
			p.WaitCond(s.submitter)
		}
		item := s.queue[0]
		s.queue = s.queue[1:]
		s.issueAndRecord(p, s.ctxs[0], s.shared, item.req, item.m)
	}
}

// runJob spawns the per-job client process of CUDA-MS/MPS: create a
// stream, submit everything, wait for the completion event.
func (s *directSystem) runJob(ctx *cudart.Context, req workload.Request, m *model.Model) {
	s.env.Spawn("direct-job", func(p *sim.Proc) {
		stream := ctx.StreamCreate()
		s.issueAndRecord(p, ctx, stream, req, m)
	})
}

// issueAndRecord submits all ops of a job to the stream, charging the
// host-side launch costs, then waits for completion asynchronously (so the
// submitter can move on in single-stream mode the record is still per-job).
func (s *directSystem) issueAndRecord(p *sim.Proc, ctx *cudart.Context, stream *cudart.Stream, req workload.Request, m *model.Model) {
	s.nextID++
	rec := metrics.JobRecord{
		ID:     s.nextID,
		Model:  req.Model,
		Client: req.Client,
		Submit: req.At,
		Admit:  s.env.Now(),
	}
	rec.FirstDispatch = s.env.Now()
	if m.InputBytes > 0 {
		stream.MemcpyAsync(p, cudart.HostToDevice, m.InputBytes)
	}
	for _, ki := range m.Seq {
		stream.LaunchKernel(p, m.Kernels[ki], cudart.LaunchOpts{JobTag: req.Model})
	}
	if !m.PinnedOutput && m.OutputBytes > 0 {
		stream.MemcpyAsync(p, cudart.DeviceToHost, m.OutputBytes)
	}
	ev := stream.EventRecord()
	ev.OnFire(func() {
		rec.ExecDone = s.env.Now()
		rec.Delivered = s.env.Now()
		s.collector.Add(rec)
		s.mt.RecordJob(rec.Delivered, &rec)
	})
}
