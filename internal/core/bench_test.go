package core

import (
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
	d.inflight[kid] = fl
	d.mirror.Reserve(fl.spec)
	d.Start()
	env.Run()
	if !d.mirror.Saturated() || d.Stats().LoopWakeups != 1 {
		tb.Fatal("harness loop is not idle on a saturated mirror")
	}
	rec := channel.Pack(channel.Placement, 0, uint16(devCfg.AggGroup), kid)
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
