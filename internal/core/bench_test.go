package core

import (
	"runtime"
	"testing"

	"paella/internal/channel"
	"paella/internal/compiler"
	"paella/internal/gpu"
	"paella/internal/model"
	"paella/internal/sched"
	"paella/internal/sim"
)

// BenchmarkDispatchSaturated measures one dispatcher wakeup on a T4 whose
// occupancy mirror is saturated, with 1,200 jobs waiting in the policy: the
// loop polls the client rings and the notification queue, finds the mirror
// refusing every kernel, and parks again. The mirror is saturated by hand
// (every block slot resident, the overshoot budget reserved) so the device
// stays quiet and each iteration is exactly one wakeup.
func BenchmarkDispatchSaturated(b *testing.B) {
	const clients, perClient = 2, 600
	env := sim.NewEnv()
	devCfg := gpu.TeslaT4()
	d := NewWithDevice(env, devCfg, DefaultConfig(sched.NewPaella(10000)))
	if err := d.RegisterModel(compiler.MustCompile(model.TinyNet(), compiler.DefaultConfig(), devCfg, 1)); err != nil {
		b.Fatal(err)
	}
	d.mirror.resBlocks = d.mirror.capBlocks
	d.mirror.rsvBlocks = d.mirror.overshoot
	d.Start()
	for c := 0; c < clients; c++ {
		conn := d.Connect()
		for i := 0; i < perClient; i++ {
			if !conn.Submit(Request{ID: uint64(c*perClient + i + 1), Model: "tinynet", Client: c}) {
				b.Fatal("client ring full")
			}
		}
	}
	env.Run()
	if n := d.cfg.Policy.Len(); n < 1000 {
		b.Fatalf("%d jobs in the policy, want ≥1,000", n)
	}
	if !d.mirror.Saturated() {
		b.Fatal("mirror not saturated")
	}
	wakeups := d.Stats().LoopWakeups
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.wakeNow()
		env.Run()
	}
	b.StopTimer()
	if got := d.Stats().LoopWakeups - wakeups; got != uint64(b.N) {
		b.Fatalf("%d wakeups for %d iterations", got, b.N)
	}
	if d.Stats().KernelsSent != 0 {
		b.Fatal("a kernel was dispatched past the saturated mirror")
	}
}

// newWakeupHarness builds a T4 dispatcher for the notification round trip.
// One hand-made in-flight kernel, with a grid far larger than the device,
// is reserved on the mirror, which therefore stays saturated. post
// publishes one placement record for that kernel and wakes the loop, as
// the device's OnNotifPosted hook does; the loop then polls the client
// ring, pays the poll cost, applies the record, skips dispatch on the
// saturated mirror, and waits on its Cond again.
func newWakeupHarness(tb testing.TB) (env *sim.Env, d *Dispatcher, post func()) {
	env = sim.NewEnv()
	devCfg := gpu.TeslaT4()
	d = NewWithDevice(env, devCfg, DefaultConfig(sched.NewPaella(10000)))
	d.Connect()
	const kid = 1
	fl := d.newInflight()
	fl.spec = &gpu.KernelSpec{Name: "endless", Blocks: 1 << 40, ThreadsPerBlock: 128,
		RegsPerThread: 16, BlockDuration: sim.Microsecond}
	d.inflight.put(kid, fl)
	d.mirror.Reserve(fl.spec)
	d.Start()
	env.Run()
	if !d.mirror.Saturated() || d.Stats().LoopWakeups != 1 {
		tb.Fatal("harness loop is not idle on a saturated mirror")
	}
	rec := channel.Pack(channel.Placement, 0, uint16(compiler.DefaultConfig().AggGroup), kid)
	post = func() {
		d.notifQ.Push(rec)
		d.wakeNow()
	}
	return env, d, post
}

// BenchmarkDispatcherWakeup measures one notification round trip of the
// dispatcher loop: a record is posted, the loop resumes from its idle
// wait, applies the record and waits again.
func BenchmarkDispatcherWakeup(b *testing.B) {
	env, d, post := newWakeupHarness(b)
	before := d.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post()
		env.Run()
	}
	b.StopTimer()
	st := d.Stats()
	if st.LoopWakeups-before.LoopWakeups != uint64(b.N) || st.NotifsHandled-before.NotifsHandled != uint64(b.N) {
		b.Fatalf("%d wakeups and %d records applied for %d posts",
			st.LoopWakeups-before.LoopWakeups, st.NotifsHandled-before.NotifsHandled, b.N)
	}
}

// batchedHarness is a T4 dispatcher batching at the stock width and window
// (8 jobs, 50 µs) under a closed loop: two clients keep window requests
// for resnet18 and mobilenetv2 outstanding, and each completion submits
// the next while the phase has requests left. The ready queue stays deeper
// than twice the width, so lone kernels arm holds and arrivals at a held
// slot release them.
type batchedHarness struct {
	env   *sim.Env
	d     *Dispatcher
	conns []*ClientConn
	ids   uint64
	left  int
}

func newBatchedHarness(tb testing.TB) *batchedHarness {
	env := sim.NewEnv()
	devCfg := gpu.TeslaT4()
	cfg := DefaultConfig(sched.NewPaella(10000))
	cfg.MaxBatch, cfg.BatchWindow = 8, 50*sim.Microsecond
	h := &batchedHarness{env: env, d: NewWithDevice(env, devCfg, cfg)}
	for _, name := range []string{"resnet18", "mobilenetv2"} {
		m, err := model.ByName(name)
		if err != nil {
			tb.Fatal(err)
		}
		if err := h.d.RegisterModel(compiler.MustCompile(m, compiler.DefaultConfig(), devCfg, 1)); err != nil {
			tb.Fatal(err)
		}
	}
	for c := 0; c < 2; c++ {
		conn := h.d.Connect()
		conn.OnComplete = func(uint64) { h.submit(conn) }
		h.conns = append(h.conns, conn)
	}
	h.d.Start()
	return h
}

func (h *batchedHarness) submit(conn *ClientConn) {
	if h.left == 0 {
		return
	}
	h.left--
	h.ids++
	mdl := "resnet18"
	if h.ids%3 == 0 {
		mdl = "mobilenetv2"
	}
	if !conn.Submit(Request{ID: h.ids, Model: mdl, Client: conn.ID, Submit: h.env.Now()}) {
		panic("client ring full")
	}
}

// start begins a phase of n requests with window of them in flight at
// once; running the Env then drains the phase.
func (h *batchedHarness) start(n, window int) {
	h.left = n
	for i := 0; i < window; i++ {
		h.submit(h.conns[i%len(h.conns)])
	}
}

// TestBatchedDispatchAllocs bounds the heap allocations of the batching
// dispatcher per dispatched kernel, once warm. Kernel records, launches,
// slot trees, tree nodes and widened specs are all reused by then; what is
// left is the per-request cost (the Job and its first tree nodes, the
// wakeup, copy and completion callbacks) spread over the request's
// kernels. Measured on Go 1.24 (linux/amd64): 0.654 allocations per
// kernel, so the bound is 0.75. A hashed batch index with a closure per
// hold measured 6.02 on the same harness: a tree node per ready kernel, a
// tree per refilled key, and a closure per hold.
func TestBatchedDispatchAllocs(t *testing.T) {
	const bound = 0.75
	h := newBatchedHarness(t)
	h.start(1500, 96)
	h.env.Run()
	var before, after runtime.MemStats
	st0 := h.d.Stats()
	runtime.GC()
	runtime.ReadMemStats(&before)
	h.start(1500, 96)
	h.env.Run()
	runtime.ReadMemStats(&after)
	st := h.d.Stats()
	kernels := st.KernelsSent - st0.KernelsSent
	if st.Completed-st0.Completed != 1500 || st.Batches == st0.Batches || st.BatchHolds == st0.BatchHolds {
		t.Fatalf("measured phase completed %d requests, formed %d batches and armed %d holds; want 1500 and both",
			st.Completed-st0.Completed, st.Batches-st0.Batches, st.BatchHolds-st0.BatchHolds)
	}
	perKernel := float64(after.Mallocs-before.Mallocs) / float64(kernels)
	t.Logf("%.3f allocations per dispatched kernel over %d kernels", perKernel, kernels)
	if perKernel > bound {
		t.Errorf("%.3f allocations per dispatched kernel, want ≤ %.2f", perKernel, bound)
	}
}

// TestBatchedHarnessState runs the batching harness one event at a time
// and checks the dispatcher's slot and kernel-table invariants after every
// event. Unlike the transcript's scenario, this closed loop releases holds
// by partner arrival as well as by expiry.
func TestBatchedHarnessState(t *testing.T) {
	h := newBatchedHarness(t)
	h.start(200, 96)
	for h.env.Step() {
		if err := checkDispatcherState(h.d); err != nil {
			t.Fatalf("after step %d at %d: %v", h.env.Steps(), int64(h.env.Now()), err)
		}
	}
	if st := h.d.Stats(); st.Completed != 200 || st.Batches == 0 || st.BatchHolds == 0 {
		t.Fatalf("completed %d, formed %d batches, armed %d holds; want 200 and both", st.Completed, st.Batches, st.BatchHolds)
	}
}

// BenchmarkDispatchBatched measures the batching harness per completed
// request, at 96 requests in flight; allocs/op is per request, and the
// kernels/op metric converts it to a per-kernel figure.
func BenchmarkDispatchBatched(b *testing.B) {
	h := newBatchedHarness(b)
	h.start(500, 96)
	h.env.Run()
	k0 := h.d.Stats().KernelsSent
	b.ReportAllocs()
	b.ResetTimer()
	h.start(b.N, min(96, b.N))
	h.env.Run()
	b.StopTimer()
	b.ReportMetric(float64(h.d.Stats().KernelsSent-k0)/float64(b.N), "kernels/op")
}
