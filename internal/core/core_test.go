package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"paella/internal/compiler"
	"paella/internal/gpu"
	"paella/internal/model"
	"paella/internal/sched"
	"paella/internal/sim"
	"paella/internal/telemetry"
)

// testSetup builds a dispatcher on a T4-like device with zero launch
// overhead for crisp assertions.
func testSetup(t *testing.T, cfg Config, models ...*model.Model) (*sim.Env, *Dispatcher) {
	t.Helper()
	env := sim.NewEnv()
	devCfg := gpu.TeslaT4()
	devCfg.LaunchOverhead = 0
	d := NewWithDevice(env, devCfg, cfg)
	for _, m := range models {
		ins := compiler.MustCompile(m, compiler.DefaultConfig(), devCfg, 2)
		if err := d.RegisterModel(ins); err != nil {
			t.Fatal(err)
		}
	}
	d.Start()
	return env, d
}

// instrument is compiler.Instrument for models the test knows are valid.
func instrument(t *testing.T, m *model.Model, cfg compiler.Config) *compiler.Instrumented {
	t.Helper()
	ins, err := compiler.Instrument(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ins
}

func gatedCfg() Config {
	return DefaultConfig(sched.NewPaella(100))
}

// submit pushes a request and returns a pointer that will hold delivery
// time once the result arrives.
func submit(env *sim.Env, conn *ClientConn, id uint64, mdl string, at sim.Time) *sim.Time {
	delivered := new(sim.Time)
	*delivered = -1
	prev := conn.OnComplete
	conn.OnComplete = func(reqID uint64) {
		if reqID == id {
			*delivered = env.Now()
		} else if prev != nil {
			prev(reqID)
		}
	}
	env.At(at, func() {
		ok := conn.Submit(Request{ID: id, Model: mdl, Client: conn.ID, Submit: env.Now()})
		if !ok {
			panic("ring full")
		}
	})
	return delivered
}

func TestGatedSingleJobCompletes(t *testing.T) {
	env, d := testSetup(t, gatedCfg(), model.TinyNet())
	conn := d.Connect()
	var almost, done sim.Time = -1, -1
	conn.OnAlmostFinished = func(uint64) { almost = env.Now() }
	conn.OnComplete = func(uint64) { done = env.Now() }
	env.At(0, func() {
		conn.Submit(Request{ID: 1, Model: "tinynet", Client: 0, Submit: 0})
	})
	env.Run()
	if done < 0 {
		t.Fatal("job never completed")
	}
	if almost < 0 || almost > done {
		t.Fatalf("almost-finished at %v, done at %v", almost, done)
	}
	st := d.Stats()
	if st.Admitted != 1 || st.Completed != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// TinyNet has 3 kernels; each emits ≥2 notifications.
	if st.KernelsSent != 3 {
		t.Fatalf("KernelsSent = %d", st.KernelsSent)
	}
	if st.NotifsHandled < 6 {
		t.Fatalf("NotifsHandled = %d", st.NotifsHandled)
	}
	recs := d.Collector().Records()
	if len(recs) != 1 {
		t.Fatalf("records = %d", len(recs))
	}
	r := recs[0]
	if !(r.Submit <= r.Admit && r.Admit <= r.FirstDispatch && r.FirstDispatch <= r.ExecDone && r.ExecDone <= r.Delivered) {
		t.Fatalf("timeline out of order: %+v", r)
	}
	// Latency should be dominated by model execution (~100µs of kernels +
	// input copy), with only µs-scale overheads.
	jct := r.JCT()
	if jct < 100*sim.Microsecond || jct > 400*sim.Microsecond {
		t.Fatalf("JCT = %v, want ~100-400µs", jct)
	}
}

func TestGatedManyJobsAllComplete(t *testing.T) {
	env, d := testSetup(t, gatedCfg(), model.TinyNet())
	conn := d.Connect()
	done := 0
	conn.OnComplete = func(uint64) { done++ }
	for i := 0; i < 50; i++ {
		id := uint64(i + 1)
		at := sim.Time(i) * 20 * sim.Microsecond
		env.At(at, func() {
			if !conn.Submit(Request{ID: id, Model: "tinynet", Client: 0, Submit: env.Now()}) {
				t.Error("ring full")
			}
		})
	}
	env.Run()
	if done != 50 {
		t.Fatalf("completed %d of 50", done)
	}
	if !d.mirror.Idle() {
		t.Fatal("mirror not idle after drain")
	}
	if d.inflight.len() != 0 {
		t.Fatalf("%d kernels still inflight", d.inflight.len())
	}
}

func TestModesAllComplete(t *testing.T) {
	for _, mode := range []Mode{ModeGated, ModeKernelByKernel, ModeJobByJob, ModeSingleStream} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			cfg := gatedCfg()
			cfg.Mode = mode
			if mode != ModeGated {
				cfg.Policy = nil
			}
			env, d := testSetup(t, cfg, model.TinyNet())
			conn := d.Connect()
			done := 0
			conn.OnComplete = func(uint64) { done++ }
			for i := 0; i < 10; i++ {
				id := uint64(i + 1)
				env.At(sim.Time(i)*50*sim.Microsecond, func() {
					conn.Submit(Request{ID: id, Model: "tinynet", Client: 0, Submit: env.Now()})
				})
			}
			env.Run()
			if done != 10 {
				t.Fatalf("%s: completed %d of 10", mode, done)
			}
		})
	}
}

// TestSingleStreamSerializes: in ModeSingleStream two jobs submitted
// together must not overlap on the GPU, while ModeGated overlaps them.
func TestSingleStreamSerializesGatedOverlaps(t *testing.T) {
	run := func(mode Mode) sim.Time {
		cfg := gatedCfg()
		cfg.Mode = mode
		if mode != ModeGated {
			cfg.Policy = nil
		}
		env, d := testSetup(t, cfg, model.Fig2Job())
		conn := d.Connect()
		var last sim.Time
		done := 0
		conn.OnComplete = func(uint64) { done++; last = env.Now() }
		for i := 0; i < 4; i++ {
			id := uint64(i + 1)
			env.At(0, func() {
				conn.Submit(Request{ID: id, Model: "fig2job", Client: 0, Submit: 0})
			})
		}
		env.Run()
		if done != 4 {
			t.Fatalf("%v: completed %d of 4", mode, done)
		}
		return last
	}
	serial := run(ModeSingleStream)
	overlapped := run(ModeGated)
	// Four 8-kernel jobs of ~300µs kernels: serialized ≈ 4×8×300µs ≈
	// 9.6ms; overlapped ≈ 8×300µs ≈ 2.4ms (plus copies and overheads).
	if serial < 3*overlapped/2 {
		t.Fatalf("single stream (%v) not clearly slower than gated (%v)", serial, overlapped)
	}
}

// TestGatedSRPTPrefersShortJob: under ModeGated with SRPT, a short job
// arriving at a busy device overtakes queued long work.
func TestGatedSRPTPrefersShortJob(t *testing.T) {
	short, long := model.LongShort()
	cfg := DefaultConfig(sched.NewSRPT())
	env, d := testSetup(t, cfg, short, long)
	conn := d.Connect()
	finished := map[uint64]sim.Time{}
	conn.OnComplete = func(id uint64) { finished[id] = env.Now() }
	// Saturate with long jobs, then submit one short job.
	for i := 0; i < 6; i++ {
		id := uint64(i + 1)
		env.At(0, func() {
			conn.Submit(Request{ID: id, Model: "longjob", Client: 0, Submit: 0})
		})
	}
	env.At(100*sim.Microsecond, func() {
		conn.Submit(Request{ID: 100, Model: "shortjob", Client: 0, Submit: env.Now()})
	})
	env.Run()
	if len(finished) != 7 {
		t.Fatalf("finished %d of 7", len(finished))
	}
	shortDone := finished[100]
	longFirst := finished[1]
	for id, at := range finished {
		if id != 100 && at < longFirst {
			longFirst = at
		}
	}
	if shortDone > longFirst {
		t.Fatalf("short job (%v) did not beat first long job (%v) under SRPT", shortDone, longFirst)
	}
}

// TestGatedKeepsQueuesShallow: with occupancy gating the device hardware
// queues never hold more than the overshoot budget worth of blocks.
func TestGatedKeepsQueuesShallow(t *testing.T) {
	cfg := gatedCfg()
	cfg.OvershootBlocks = 8
	// A meter attached before the device is built samples the device's
	// total queued launches (gpu/hwq_depth) on every change.
	env := sim.NewEnv()
	mt := telemetry.NewMeter("t", sim.Second)
	env.SetMeter(mt)
	devCfg := gpu.TeslaT4()
	devCfg.LaunchOverhead = 0
	d := NewWithDevice(env, devCfg, cfg)
	if err := d.RegisterModel(compiler.MustCompile(model.Fig2Job(), compiler.DefaultConfig(), devCfg, 2)); err != nil {
		t.Fatal(err)
	}
	d.Start()
	conn := d.Connect()
	done := 0
	conn.OnComplete = func(uint64) { done++ }
	for i := 0; i < 40; i++ {
		id := uint64(i + 1)
		env.At(0, func() {
			conn.Submit(Request{ID: id, Model: "fig2job", Client: 0, Submit: 0})
		})
	}
	env.Run()
	var buf bytes.Buffer
	if err := telemetry.WriteJSON(&buf, env.Now(), telemetry.Export{Meters: []*telemetry.Meter{mt}}); err != nil {
		t.Fatal(err)
	}
	var ex struct {
		Meters []struct {
			Metrics []struct {
				Name    string
				Windows []struct{ Max float64 }
			}
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &ex); err != nil {
		t.Fatal(err)
	}
	maxQueued := 0
	for _, m := range ex.Meters[0].Metrics {
		if m.Name == "gpu/hwq_depth" {
			for _, w := range m.Windows {
				maxQueued = max(maxQueued, int(w.Max))
			}
		}
	}
	if done != 40 {
		t.Fatalf("completed %d of 40", done)
	}
	// fig2job kernels are 1 block each; queued launches are bounded by the
	// device capacity prediction plus B (8). The whole device fits 640
	// blocks of this shape, so the bound is generous; the key property is
	// that we never see all 320 kernels queued at once.
	if maxQueued > 330 {
		t.Fatalf("hardware queues held %d launches — gating ineffective", maxQueued)
	}
	if maxQueued == 0 {
		t.Fatal("nothing ever queued?")
	}
}

func TestRegisterModelValidation(t *testing.T) {
	env := sim.NewEnv()
	d := NewWithDevice(env, gpu.TeslaT4(), gatedCfg())
	ins := instrument(t, model.TinyNet(), compiler.DefaultConfig())
	if err := d.RegisterModel(ins); err == nil {
		t.Fatal("unprofiled model registered")
	}
	full := compiler.MustCompile(model.TinyNet(), compiler.DefaultConfig(), gpu.TeslaT4(), 1)
	if err := d.RegisterModel(full); err != nil {
		t.Fatal(err)
	}
	if err := d.RegisterModel(full); err == nil {
		t.Fatal("duplicate model registered")
	}
	if _, ok := d.models["tinynet"]; !ok {
		t.Fatal("registered model missing")
	}
}

func TestMirrorAccounting(t *testing.T) {
	m := newMirror(gpu.Config{
		NumSMs: 2,
		SM:     gpu.SMResources{MaxBlocks: 4, MaxThreads: 1024, MaxRegisters: 65536, MaxSharedMem: 48 << 10},
	}, 4)
	k := &gpu.KernelSpec{Name: "k", Blocks: 4, ThreadsPerBlock: 256, RegsPerThread: 8, BlockDuration: 1}
	if !m.CanAccept(k) {
		t.Fatal("empty mirror rejected kernel")
	}
	// Capacity: 8 block slots, 2048 threads. Each kernel: 4 blocks, 1024
	// threads. Two fit within capacity; with 8 blocks reserved
	// (unconfirmed), the overshoot budget of 4 is exhausted, so a third is
	// rejected until placements confirm.
	m.Reserve(k)
	m.Reserve(k)
	if m.CanAccept(k) {
		t.Fatal("accepted beyond capacity with overshoot exhausted by reservations")
	}
	// Placement notifications convert reserved to resident; the hardware
	// queue is now empty (rsv=0 < B), so one more kernel may be queued
	// beyond full utilization — but only one.
	m.Place(k, 4)
	m.Place(k, 4)
	if !m.CanAccept(k) {
		t.Fatal("overshoot budget not honoured after placements confirmed")
	}
	m.Reserve(k)
	if m.CanAccept(k) {
		t.Fatal("accepted beyond capacity + overshoot")
	}
	m.Place(k, 4)
	m.Complete(k, 4)
	m.Complete(k, 4)
	m.Complete(k, 4)
	if !m.Idle() {
		t.Fatal("mirror not idle after full cycle")
	}
}

func TestMirrorNegativePanics(t *testing.T) {
	m := newMirror(gpu.TeslaT4(), 4)
	k := &gpu.KernelSpec{Name: "k", Blocks: 1, ThreadsPerBlock: 32, RegsPerThread: 1, BlockDuration: 1}
	defer func() {
		if recover() == nil {
			t.Error("negative residency did not panic")
		}
	}()
	m.Complete(k, 1)
}

func TestUnknownModelPanics(t *testing.T) {
	env, d := testSetup(t, gatedCfg(), model.TinyNet())
	conn := d.Connect()
	env.At(0, func() {
		conn.Submit(Request{ID: 1, Model: "bogus", Client: 0, Submit: 0})
	})
	defer func() {
		if recover() == nil {
			t.Error("unknown model did not panic")
		}
	}()
	env.Run()
}

func TestStopEndsLoop(t *testing.T) {
	env, d := testSetup(t, gatedCfg(), model.TinyNet())
	conn := d.Connect()
	done := false
	conn.OnComplete = func(uint64) { done = true }
	env.At(0, func() {
		conn.Submit(Request{ID: 1, Model: "tinynet", Client: 0, Submit: 0})
	})
	env.Run()
	if !done {
		t.Fatal("job did not finish")
	}
	d.Stop()
	env.Run()
	// After Stop, new submissions are ignored by the exited loop; the ring
	// fills but nothing crashes.
	conn.Submit(Request{ID: 2, Model: "tinynet", Client: 0, Submit: env.Now()})
	env.Run()
}

func TestSchedDelaySlowsDispatcher(t *testing.T) {
	run := func(delay sim.Time) sim.Time {
		cfg := gatedCfg()
		cfg.SchedDelay = delay
		env, d := testSetup(t, cfg, model.TinyNet())
		conn := d.Connect()
		var last sim.Time
		conn.OnComplete = func(uint64) { last = env.Now() }
		for i := 0; i < 20; i++ {
			id := uint64(i + 1)
			env.At(0, func() {
				conn.Submit(Request{ID: id, Model: "tinynet", Client: 0, Submit: 0})
			})
		}
		env.Run()
		return last
	}
	fast := run(0)
	slow := run(500 * sim.Microsecond)
	if slow <= fast {
		t.Fatalf("injected scheduling delay had no effect: %v vs %v", fast, slow)
	}
}

func TestRegisterModelRejectsOversizeKernels(t *testing.T) {
	env := sim.NewEnv()
	cfg := gpu.TeslaT4()
	d := NewWithDevice(env, cfg, gatedCfg())
	huge := &model.Model{
		Name: "huge",
		Kernels: []*gpu.KernelSpec{{
			Name: "k", Blocks: 1, ThreadsPerBlock: cfg.SM.MaxThreads + 1,
			RegsPerThread: 1, BlockDuration: 1,
		}},
		Seq:          []int{0},
		PinnedOutput: true,
	}
	ins := instrument(t, huge, compiler.Config{})
	ins.Profile = &compiler.Profile{}
	// Attach a minimal profile via the public pipeline on a big device.
	big := cfg
	big.SM.MaxThreads = 4096
	full := compiler.MustCompile(huge, compiler.Config{}, big, 1)
	if err := d.RegisterModel(full); err == nil {
		t.Fatal("model with un-placeable kernel registered")
	}
}

// TestRecordsFollowCompiledGroup: the notification group is the compiled
// model's, not the device's. A model compiled with AggGroup 4 and served
// gated on a T4 must hand the dispatcher exactly compiler.Config.Records
// records per dispatched kernel.
func TestRecordsFollowCompiledGroup(t *testing.T) {
	ccfg := compiler.DefaultConfig()
	ccfg.AggGroup = 4
	mk := func(name string, blocks int) *gpu.KernelSpec {
		return &gpu.KernelSpec{Name: name, Blocks: blocks, ThreadsPerBlock: 128,
			RegsPerThread: 16, BlockDuration: 20 * sim.Microsecond}
	}
	m := &model.Model{Name: "grouped", Kernels: []*gpu.KernelSpec{mk("wide", 40), mk("narrow", 7)},
		Seq: []int{0, 1, 0}, PinnedOutput: true}
	env := sim.NewEnv()
	devCfg := gpu.TeslaT4()
	d := NewWithDevice(env, devCfg, gatedCfg())
	ins := compiler.MustCompile(m, ccfg, devCfg, 1)
	if ins.NotifGroup != 4 {
		t.Fatalf("NotifGroup = %d, want 4", ins.NotifGroup)
	}
	if err := d.RegisterModel(ins); err != nil {
		t.Fatal(err)
	}
	d.Start()
	conn := d.Connect()
	const jobs = 3
	done := 0
	conn.OnComplete = func(uint64) { done++ }
	for i := 0; i < jobs; i++ {
		id := uint64(i + 1)
		env.At(0, func() { conn.Submit(Request{ID: id, Model: "grouped", Client: conn.ID}) })
	}
	env.Run()
	want := 0
	for _, k := range m.Seq {
		want += jobs * ccfg.Records(m.Kernels[k].Blocks)
	}
	st := d.Stats()
	if done != jobs || st.KernelsSent != uint64(jobs*len(m.Seq)) {
		t.Fatalf("completed %d of %d jobs, %d kernels sent", done, jobs, st.KernelsSent)
	}
	if st.NotifsHandled != uint64(want) {
		t.Fatalf("NotifsHandled = %d, want %d (Records at group 4)", st.NotifsHandled, want)
	}
}
