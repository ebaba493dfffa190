package core

import (
	"strings"
	"testing"

	"paella/internal/compiler"
	"paella/internal/cudart"
	"paella/internal/gpu"
	"paella/internal/model"
	"paella/internal/sched"
	"paella/internal/sim"
)

// seqAdaptor replays a model's standard op sequence through the hooked
// runtime: input copy, kernels on one stream, synchronize.
type seqAdaptor struct {
	m *model.Model
}

func (a *seqAdaptor) Run(p *sim.Proc, ctx *cudart.Context) {
	s := ctx.StreamCreate()
	if a.m.InputBytes > 0 {
		s.MemcpyAsync(nil, cudart.HostToDevice, a.m.InputBytes)
	}
	for _, ki := range a.m.Seq {
		s.LaunchKernelAsync(a.m.Kernels[ki], cudart.LaunchOpts{})
	}
	if !a.m.PinnedOutput && a.m.OutputBytes > 0 {
		s.MemcpyAsync(nil, cudart.DeviceToHost, a.m.OutputBytes)
	}
	ctx.DeviceSynchronize(p)
}

func adaptorSetup(t *testing.T) (*sim.Env, *Dispatcher, *compiler.Instrumented) {
	t.Helper()
	env := sim.NewEnv()
	devCfg := gpu.TeslaT4()
	devCfg.LaunchOverhead = 0
	d := NewWithDevice(env, devCfg, DefaultConfig(sched.NewPaella(10000)))
	ins := compiler.MustCompile(model.TinyNet(), compiler.DefaultConfig(), devCfg, 1)
	d.Start()
	return env, d, ins
}

func TestAdaptorJobCompletes(t *testing.T) {
	env, d, ins := adaptorSetup(t)
	if err := d.RegisterAdaptor("custom", ins, &seqAdaptor{m: ins.Model}); err != nil {
		t.Fatal(err)
	}
	conn := d.Connect()
	var done sim.Time = -1
	conn.OnComplete = func(uint64) { done = env.Now() }
	env.At(0, func() {
		conn.Submit(Request{ID: 1, Model: "custom", Client: 0, Submit: 0})
	})
	env.Run()
	if done < 0 {
		t.Fatal("adaptor job never completed")
	}
	st := d.Stats()
	// TinyNet: 3 kernels + 1 input copy through the waitlist.
	if st.KernelsSent != 3 || st.CopiesSent != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if d.inflight.len() != 0 || !d.mirror.Idle() {
		t.Fatal("dispatcher state not drained")
	}
}

// TestAdaptorMatchesModelPath: the same model served through the adaptor
// path and the standard model path must produce (nearly) identical
// completion times — the transparent-wrapper property of §4.2.
func TestAdaptorMatchesModelPath(t *testing.T) {
	run := func(useAdaptor bool) sim.Time {
		env, d, ins := adaptorSetup(t)
		if useAdaptor {
			if err := d.RegisterAdaptor("tinynet", ins, &seqAdaptor{m: ins.Model}); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := d.RegisterModel(ins); err != nil {
				t.Fatal(err)
			}
		}
		conn := d.Connect()
		var done sim.Time
		conn.OnComplete = func(uint64) { done = env.Now() }
		env.At(0, func() {
			conn.Submit(Request{ID: 1, Model: "tinynet", Client: 0, Submit: 0})
		})
		env.Run()
		return done
	}
	mp := run(false)
	ap := run(true)
	diff := ap - mp
	if diff < 0 {
		diff = -diff
	}
	// Identical GPU work; only µs-scale bookkeeping may differ.
	if diff > 20*sim.Microsecond {
		t.Fatalf("adaptor path %v vs model path %v (Δ %v)", ap, mp, diff)
	}
}

// twoStreamAdaptor launches two independent kernels on separate virtual
// streams: the dispatcher's waitlists must let them overlap on the GPU.
type twoStreamAdaptor struct {
	k *gpu.KernelSpec
}

func (a *twoStreamAdaptor) Run(p *sim.Proc, ctx *cudart.Context) {
	s1, s2 := ctx.StreamCreate(), ctx.StreamCreate()
	s1.LaunchKernelAsync(a.k, cudart.LaunchOpts{})
	s2.LaunchKernelAsync(a.k, cudart.LaunchOpts{})
	ctx.DeviceSynchronize(p)
}

// chainAdaptor launches the same two kernels on ONE stream (serialized).
type chainAdaptor struct {
	k *gpu.KernelSpec
}

func (a *chainAdaptor) Run(p *sim.Proc, ctx *cudart.Context) {
	s := ctx.StreamCreate()
	s.LaunchKernelAsync(a.k, cudart.LaunchOpts{})
	s.LaunchKernelAsync(a.k, cudart.LaunchOpts{})
	ctx.DeviceSynchronize(p)
}

func TestAdaptorMultiStreamOverlaps(t *testing.T) {
	k := &gpu.KernelSpec{
		Name: "branch", Blocks: 4, ThreadsPerBlock: 256,
		RegsPerThread: 16, BlockDuration: 100 * sim.Microsecond,
	}
	mk := func(a Adaptor) sim.Time {
		env := sim.NewEnv()
		devCfg := gpu.TeslaT4()
		devCfg.LaunchOverhead = 0
		d := NewWithDevice(env, devCfg, DefaultConfig(sched.NewPaella(10000)))
		m := &model.Model{Name: "branchy", Kernels: []*gpu.KernelSpec{k}, Seq: []int{0, 0}, PinnedOutput: true}
		ins := instrument(t, m, compiler.Config{})
		if _, err := compiler.ProfileModel(ins, devCfg, 1); err != nil {
			t.Fatal(err)
		}
		if err := d.RegisterAdaptor("branchy", ins, a); err != nil {
			t.Fatal(err)
		}
		d.Start()
		conn := d.Connect()
		var done sim.Time
		conn.OnComplete = func(uint64) { done = env.Now() }
		env.At(0, func() {
			conn.Submit(Request{ID: 1, Model: "branchy", Client: 0, Submit: 0})
		})
		env.Run()
		return done
	}
	parallel := mk(&twoStreamAdaptor{k: k})
	serial := mk(&chainAdaptor{k: k})
	// Two 100µs kernels: overlapped ≈ 100µs + overheads, chained ≈ 200µs+.
	if serial < parallel+80*sim.Microsecond {
		t.Fatalf("multi-stream adaptor did not overlap: parallel=%v serial=%v", parallel, serial)
	}
}

// defaultStreamAdaptor exercises Figure 7's legacy rule inside the
// waitlist: a default-stream op serializes against other streams.
type defaultStreamAdaptor struct {
	k *gpu.KernelSpec
}

func (a *defaultStreamAdaptor) Run(p *sim.Proc, ctx *cudart.Context) {
	s1 := ctx.StreamCreate()
	s1.LaunchKernelAsync(a.k, cudart.LaunchOpts{})
	// Default-stream kernel: must wait for s1's kernel, and s1's next
	// kernel must wait for it.
	ctx.DefaultStream().LaunchKernelAsync(a.k, cudart.LaunchOpts{})
	s1.LaunchKernelAsync(a.k, cudart.LaunchOpts{})
	ctx.DeviceSynchronize(p)
}

func TestAdaptorDefaultStreamSerializes(t *testing.T) {
	k := &gpu.KernelSpec{
		Name: "dsk", Blocks: 1, ThreadsPerBlock: 128,
		RegsPerThread: 8, BlockDuration: 100 * sim.Microsecond,
	}
	env := sim.NewEnv()
	devCfg := gpu.TeslaT4()
	devCfg.LaunchOverhead = 0
	d := NewWithDevice(env, devCfg, DefaultConfig(sched.NewPaella(10000)))
	m := &model.Model{Name: "ds", Kernels: []*gpu.KernelSpec{k}, Seq: []int{0, 0, 0}, PinnedOutput: true}
	ins := instrument(t, m, compiler.Config{})
	if _, err := compiler.ProfileModel(ins, devCfg, 1); err != nil {
		t.Fatal(err)
	}
	if err := d.RegisterAdaptor("ds", ins, &defaultStreamAdaptor{k: k}); err != nil {
		t.Fatal(err)
	}
	d.Start()
	conn := d.Connect()
	var done sim.Time
	conn.OnComplete = func(uint64) { done = env.Now() }
	env.At(0, func() {
		conn.Submit(Request{ID: 1, Model: "ds", Client: 0, Submit: 0})
	})
	env.Run()
	// Full serialization: 3 × 100µs plus small overheads.
	if done < 300*sim.Microsecond {
		t.Fatalf("default-stream rule violated: done at %v, want ≥300µs", done)
	}
	if done > 320*sim.Microsecond {
		t.Fatalf("unexpectedly slow: %v", done)
	}
}

func TestRegisterAdaptorValidation(t *testing.T) {
	env := sim.NewEnv()
	_ = env
	_, d, ins := adaptorSetup(t)
	a := &seqAdaptor{m: ins.Model}
	// No profile.
	bare := instrument(t, model.TinyNet(), compiler.DefaultConfig())
	if err := d.RegisterAdaptor("x", bare, a); err == nil {
		t.Fatal("adaptor without profile registered")
	}
	if err := d.RegisterAdaptor("x", ins, a); err != nil {
		t.Fatal(err)
	}
	if err := d.RegisterAdaptor("x", ins, a); err == nil {
		t.Fatal("duplicate adaptor registered")
	}
	// Name collision with a model.
	if err := d.RegisterModel(ins); err != nil {
		t.Fatal(err)
	}
	if err := d.RegisterAdaptor("tinynet", ins, a); err == nil {
		t.Fatal("adaptor shadowing a registered model accepted")
	}
	// Wrong mode.
	cfg := DefaultConfig(nil)
	cfg.Mode = ModeJobByJob
	d2 := NewWithDevice(sim.NewEnv(), gpu.TeslaT4(), cfg)
	if err := d2.RegisterAdaptor("x", ins, a); err == nil {
		t.Fatal("adaptor registered on non-gated dispatcher")
	}
}

// TestAdaptorInvalidKernelPanicsAtLaunch: an adaptor kernel with no blocks
// is refused where it enters the waitlist, before it can reach the policy
// (whose saturated-mirror skip assumes every kernel has a block) or the
// device.
func TestAdaptorInvalidKernelPanicsAtLaunch(t *testing.T) {
	env, d, ins := adaptorSetup(t)
	zero := &gpu.KernelSpec{Name: "empty-grid", Blocks: 0, ThreadsPerBlock: 128}
	launch := AdaptorFunc(func(p *sim.Proc, ctx *cudart.Context) {
		ctx.StreamCreate().LaunchKernelAsync(zero, cudart.LaunchOpts{})
		ctx.DeviceSynchronize(p)
	})
	if err := d.RegisterAdaptor("bad", ins, launch); err != nil {
		t.Fatal(err)
	}
	conn := d.Connect()
	env.At(0, func() {
		conn.Submit(Request{ID: 1, Model: "bad", Client: 0, Submit: 0})
	})
	got := func() (r any) {
		defer func() { r = recover() }()
		env.Run()
		return nil
	}()
	msg, _ := got.(string)
	if !strings.Contains(msg, `core: kernel "empty-grid": grid size 0`) {
		t.Fatalf("run panicked with %v, want the launch-time validation panic", got)
	}
	if d.Stats().KernelsSent != 0 {
		t.Fatal("invalid kernel reached the device")
	}
}

// TestAdaptorUnderLoadWithModelJobs mixes adaptor-backed and model-backed
// jobs under contention.
func TestAdaptorUnderLoadWithModelJobs(t *testing.T) {
	env, d, ins := adaptorSetup(t)
	if err := d.RegisterModel(ins); err != nil { // "tinynet"
		t.Fatal(err)
	}
	ins2 := compiler.MustCompile(model.Fig2Job(), compiler.DefaultConfig(), d.Device().Config(), 1)
	if err := d.RegisterAdaptor("fig2-adaptor", ins2, &seqAdaptor{m: ins2.Model}); err != nil {
		t.Fatal(err)
	}
	conn := d.Connect()
	done := 0
	conn.OnComplete = func(uint64) { done++ }
	for i := 0; i < 30; i++ {
		id := uint64(i + 1)
		name := "tinynet"
		if i%3 == 0 {
			name = "fig2-adaptor"
		}
		nm := name
		env.At(sim.Time(i)*30*sim.Microsecond, func() {
			conn.Submit(Request{ID: id, Model: nm, Client: 0, Submit: env.Now()})
		})
	}
	env.Run()
	if done != 30 {
		t.Fatalf("completed %d of 30", done)
	}
}
