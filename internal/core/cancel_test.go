package core

import (
	"testing"

	"paella/internal/model"
	"paella/internal/sim"
)

func TestCancelQueuedJob(t *testing.T) {
	env, d := testSetup(t, gatedCfg(), model.Fig2Job())
	conn := d.Connect()
	finished := map[uint64]sim.Time{}
	conn.OnComplete = func(id uint64) { finished[id] = env.Now() }
	// Fill the device with several jobs, then cancel the last (still
	// queued) one immediately.
	for i := 0; i < 6; i++ {
		id := uint64(i + 1)
		env.At(0, func() {
			conn.Submit(Request{ID: id, Model: "fig2job", Client: 0, Submit: 0})
		})
	}
	env.At(50*sim.Microsecond, func() { conn.Cancel(6) })
	env.Run()
	if len(finished) != 6 {
		t.Fatalf("finished %d of 6", len(finished))
	}
	// The cancelled job must be marked and must have finished far earlier
	// than a full run (8 × 300µs kernels ≈ 2.4ms+).
	var cancelledRec, normalRec *sim.Time
	for _, r := range d.Collector().Records() {
		r := r
		if r.ID == 6 {
			if !r.Cancelled {
				t.Fatal("job 6 not marked cancelled")
			}
			v := r.Delivered
			cancelledRec = &v
		}
		if r.ID == 1 {
			v := r.Delivered
			normalRec = &v
		}
	}
	if cancelledRec == nil || normalRec == nil {
		t.Fatal("records missing")
	}
	if *cancelledRec >= *normalRec {
		t.Fatalf("cancelled job (%v) did not finish before a normal job (%v)",
			*cancelledRec, *normalRec)
	}
}

func TestCancelMidRunDrainsInFlight(t *testing.T) {
	env, d := testSetup(t, gatedCfg(), model.Fig2Job())
	conn := d.Connect()
	var doneAt sim.Time = -1
	conn.OnComplete = func(id uint64) { doneAt = env.Now() }
	env.At(0, func() {
		conn.Submit(Request{ID: 1, Model: "fig2job", Client: 0, Submit: 0})
	})
	// Cancel while the first ~300µs kernel is on the device.
	env.At(150*sim.Microsecond, func() { conn.Cancel(1) })
	env.Run()
	if doneAt < 0 {
		t.Fatal("cancelled job never delivered")
	}
	// The in-flight kernel must drain (finish ≥ its 300µs end) but the
	// remaining 7 kernels are dropped (finish ≪ 2.4ms).
	if doneAt < 290*sim.Microsecond || doneAt > 600*sim.Microsecond {
		t.Fatalf("cancelled mid-run at %v, want ≈300-400µs", doneAt)
	}
	st := d.Stats()
	if st.KernelsSent >= 8 {
		t.Fatalf("cancel did not stop kernel dispatch: %d sent", st.KernelsSent)
	}
	if d.inflight.len() != 0 || !d.mirror.Idle() {
		t.Fatal("state not drained after cancel")
	}
}

func TestCancelUnknownOrDoneIsNoop(t *testing.T) {
	env, d := testSetup(t, gatedCfg(), model.TinyNet())
	conn := d.Connect()
	done := 0
	conn.OnComplete = func(uint64) { done++ }
	env.At(0, func() {
		conn.Submit(Request{ID: 1, Model: "tinynet", Client: 0, Submit: 0})
	})
	env.Run()
	if done != 1 {
		t.Fatal("setup job did not complete")
	}
	// Cancelling a finished job and a never-submitted id must be no-ops.
	conn.Cancel(1)
	conn.Cancel(999)
	env.Run()
	if done != 1 || d.Stats().Completed != 1 {
		t.Fatalf("no-op cancel changed state: done=%d stats=%+v", done, d.Stats())
	}
}

func TestCancelDoubleCancelSafe(t *testing.T) {
	env, d := testSetup(t, gatedCfg(), model.Fig2Job())
	conn := d.Connect()
	done := 0
	conn.OnComplete = func(uint64) { done++ }
	env.At(0, func() {
		conn.Submit(Request{ID: 1, Model: "fig2job", Client: 0, Submit: 0})
	})
	env.At(100*sim.Microsecond, func() { conn.Cancel(1); conn.Cancel(1) })
	env.At(200*sim.Microsecond, func() { conn.Cancel(1) })
	env.Run()
	if done != 1 || d.Stats().Completed != 1 {
		t.Fatalf("double cancel corrupted state: done=%d stats=%+v", done, d.Stats())
	}
}
