package core

import (
	"runtime"
	"testing"
	"time"

	"paella/internal/model"
	"paella/internal/sim"
)

// TestDispatcherResumeAllocFree: the loop's steady wake → poll → dispatch
// → wait cycle allocates nothing. Woken by a notification post, the loop
// polls the ring and the notification queue, pays the poll cost (in place,
// or through a queued resume when another event is due first), applies the
// record, skips dispatch on the saturated mirror and waits again. Woken
// with an unsaturated mirror that refuses every ready job, it runs the
// policy scan instead.
func TestDispatcherResumeAllocFree(t *testing.T) {
	env, d, post := newWakeupHarness(t)
	other := func() {}
	for _, c := range []struct {
		name  string
		cycle func()
	}{
		{"charge in place", func() { post(); env.Run() }},
		{"charge resumed by an event", func() { env.After(100, other); post(); env.Run() }},
	} {
		before := d.Stats()
		const runs = 200
		if got := testing.AllocsPerRun(runs, c.cycle); got != 0 {
			t.Errorf("%s: %v allocations per cycle, want 0", c.name, got)
		}
		st := d.Stats()
		// AllocsPerRun makes one warm-up call besides the measured runs.
		if st.LoopWakeups-before.LoopWakeups != runs+1 || st.NotifsHandled-before.NotifsHandled != runs+1 {
			t.Fatalf("%s: %d wakeups and %d records applied in %d cycles", c.name,
				st.LoopWakeups-before.LoopWakeups, st.NotifsHandled-before.NotifsHandled, runs+1)
		}
	}

	// 1,200 ready tinynet jobs (two-block kernels) on a mirror with one free
	// block slot and the overshoot budget spent: not saturated, so the scan
	// runs, and every candidate is refused.
	env, d = testSetup(t, gatedCfg(), model.TinyNet())
	d.mirror.rsvBlocks = d.mirror.overshoot
	d.mirror.resBlocks = d.mirror.capBlocks - 1 - d.mirror.overshoot
	for c := 0; c < 2; c++ {
		conn := d.Connect()
		for i := 0; i < 600; i++ {
			if !conn.Submit(Request{ID: uint64(c*600 + i + 1), Model: "tinynet", Client: c}) {
				t.Fatal("client ring full")
			}
		}
	}
	env.Run()
	if d.mirror.Saturated() || d.cfg.Policy.Len() != 1200 || d.Stats().KernelsSent != 0 {
		t.Fatal("scan harness: want 1,200 ready jobs on an unsaturated, refusing mirror")
	}
	before := d.Stats().LoopWakeups
	if got := testing.AllocsPerRun(200, func() { d.wakeNow(); env.Run() }); got != 0 {
		t.Errorf("scan wakeup: %v allocations per cycle, want 0", got)
	}
	if n := d.Stats().LoopWakeups - before; n != 201 {
		t.Fatalf("scan wakeup: %d wakeups in 201 cycles", n)
	}
}

// envMarker lets a finalizer observe an Env's collection. The Env sits in
// reference cycles, and the runtime does not finalize objects in cycles; a
// marker only the Env references is finalized when the Env is. It is large
// enough to stay out of the tiny allocator.
type envMarker struct{ _ [32]byte }

// TestRunSystemIsCollectable: a gated system run to the end and dropped
// without Env.Close is garbage collected. Its dispatcher loop ends the run
// waiting on its Cond as a registered callback, not as a parked coroutine
// (a goroutine, and so a GC root), so nothing outside the system keeps its
// Env reachable.
func TestRunSystemIsCollectable(t *testing.T) {
	gone := make(chan struct{})
	func() {
		env, d := testSetup(t, gatedCfg(), model.TinyNet())
		conn := d.Connect()
		done := 0
		conn.OnComplete = func(uint64) { done++ }
		for i := 0; i < 20; i++ {
			id := uint64(i + 1)
			env.At(sim.Time(i)*20*sim.Microsecond, func() {
				conn.Submit(Request{ID: id, Model: "tinynet", Client: 0, Submit: env.Now()})
			})
		}
		env.Run()
		if done != 20 || d.awake {
			t.Fatalf("%d of 20 jobs done, loop idle %v; want all done and an idle loop", done, !d.awake)
		}
		// Components read the recorder slot at construction only.
		m := new(envMarker)
		runtime.SetFinalizer(m, func(*envMarker) { close(gone) })
		env.SetRecorder(m)
	}()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		runtime.GC()
		select {
		case <-gone:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("a gated system run to the end is still reachable after it was dropped")
}
