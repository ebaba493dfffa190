package serving

import (
	"testing"

	"paella/internal/model"
	"paella/internal/sim"
	"paella/internal/workload"
)

func TestBatchingCoalesces(t *testing.T) {
	opts := DefaultOptions()
	opts.Models = []*model.Model{model.Generate(model.Table2()[1])} // mobilenetv2
	opts.ProfileRuns = 1
	// Eight requests land within 100µs; a 1ms window with maxBatch 8
	// should run them as one batch, so all complete at (nearly) the same
	// instant.
	var trace []workload.Request
	for i := 0; i < 8; i++ {
		trace = append(trace, workload.Request{
			At: sim.Time(i) * 10 * sim.Microsecond, Model: "mobilenetv2", Client: i % 4,
		})
	}
	col := MustRunTrace(NewTritonBatching(sim.Millisecond, 8), trace, opts)
	if col.Len() != 8 {
		t.Fatalf("delivered %d of 8", col.Len())
	}
	recs := col.Records()
	first, last := recs[0].ExecDone, recs[0].ExecDone
	for _, r := range recs {
		if r.ExecDone < first {
			first = r.ExecDone
		}
		if r.ExecDone > last {
			last = r.ExecDone
		}
	}
	if last != first {
		t.Fatalf("batch members finished at different times: %v vs %v", first, last)
	}
	// Batched execution: total exec ≈ 8 × 0.75 × 1.67ms ≈ 10ms, far less
	// than 8 serial runs (~13.4ms) yet more than one (~1.7ms).
	elapsed := last - recs[0].FirstDispatch
	if elapsed < 5*sim.Millisecond || elapsed > 13*sim.Millisecond {
		t.Fatalf("batched exec span = %v, want ≈10ms", elapsed)
	}
}

func TestBatchingWindowDelaysSingletons(t *testing.T) {
	opts := DefaultOptions()
	opts.Models = []*model.Model{model.Generate(model.Table2()[1])}
	opts.ProfileRuns = 1
	trace := []workload.Request{{At: sim.Microsecond, Model: "mobilenetv2", Client: 0}}

	plain := MustRunTrace(MustNewSystem("Triton"), trace, opts).Records()[0]
	window := 2 * sim.Millisecond
	batched := MustRunTrace(NewTritonBatching(window, 8), trace, opts).Records()[0]
	delay := batched.JCT() - plain.JCT()
	// A lone request waits out the whole batch window.
	if delay < window*9/10 || delay > window*12/10 {
		t.Fatalf("singleton batching delay = %v, want ≈%v", delay, window)
	}
}

// TestBatchingWindowReArmsAfterFullBatch is the regression test for the
// stale-window bug: a full batch firing inside an armed window used to leave
// windowArmed stuck, so the next singleton inherited the orphaned (mostly
// elapsed) timer instead of a fresh full window.
func TestBatchingWindowReArmsAfterFullBatch(t *testing.T) {
	opts := DefaultOptions()
	opts.Models = []*model.Model{model.Generate(model.Table2()[1])}
	opts.ProfileRuns = 1
	window := 20 * sim.Millisecond
	// Four near-simultaneous requests: the first arms the window, the fourth
	// fills the batch, which dispatches immediately while the timer is still
	// pending. The straggler lands after the batch drains but before the
	// orphaned timer would have fired.
	var trace []workload.Request
	for i := 0; i < 4; i++ {
		trace = append(trace, workload.Request{
			At: sim.Time(i) * 10 * sim.Microsecond, Model: "mobilenetv2", Client: i,
		})
	}
	trace = append(trace, workload.Request{
		At: 10 * sim.Millisecond, Model: "mobilenetv2", Client: 0,
	})
	col := MustRunTrace(NewTritonBatching(window, 4), trace, opts)
	if col.Len() != 5 {
		t.Fatalf("delivered %d of 5", col.Len())
	}
	recs := col.Records()
	straggler := recs[0]
	for _, r := range recs {
		if r.Submit > straggler.Submit {
			straggler = r
		}
	}
	wait := straggler.FirstDispatch - straggler.Admit
	// A fresh full window from the straggler's own arrival — not the
	// remainder of the consumed batch's window.
	if wait < window*9/10 || wait > window*12/10 {
		t.Fatalf("straggler waited %v, want a fresh ≈%v window", wait, window)
	}
}

// TestBatchingZeroWindowNeverStrands: batchWindow=0 with maxBatch>1 must
// degrade to immediate dispatch, never leaving requests waiting on a window
// that will never be armed.
func TestBatchingZeroWindowNeverStrands(t *testing.T) {
	opts := DefaultOptions()
	opts.Models = []*model.Model{model.Generate(model.Table2()[1])}
	opts.ProfileRuns = 1
	var trace []workload.Request
	for i := 0; i < 6; i++ {
		trace = append(trace, workload.Request{
			At: sim.Time(i) * 50 * sim.Microsecond, Model: "mobilenetv2", Client: i % 3,
		})
	}
	col := MustRunTrace(NewTritonBatching(0, 8), trace, opts)
	if col.Len() != 6 {
		t.Fatalf("zero-window batching stranded requests: delivered %d of 6", col.Len())
	}
}

// TestBatchingMaxBatchClamp: maxBatch<1 is clamped to 1, which disables
// batching outright — every request dispatches without a window wait.
func TestBatchingMaxBatchClamp(t *testing.T) {
	opts := DefaultOptions()
	opts.Models = []*model.Model{model.Generate(model.Table2()[1])}
	opts.ProfileRuns = 1
	window := 5 * sim.Millisecond
	var trace []workload.Request
	for i := 0; i < 3; i++ {
		trace = append(trace, workload.Request{
			At: sim.Time(i) * sim.Millisecond, Model: "mobilenetv2", Client: i,
		})
	}
	col := MustRunTrace(NewTritonBatching(window, 0), trace, opts)
	if col.Len() != 3 {
		t.Fatalf("clamped batching lost requests: delivered %d of 3", col.Len())
	}
	for _, r := range col.Records() {
		if wait := r.FirstDispatch - r.Admit; wait >= window {
			t.Fatalf("maxBatch<1 clamp still paid a %v window wait", wait)
		}
	}
}

func TestBatchingThroughputAtSaturation(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	opts := DefaultOptions()
	opts.Models = []*model.Model{model.Generate(model.Table2()[1])}
	opts.ProfileRuns = 1
	trace := workload.MustGenerate(workload.Spec{
		Mix: workload.Uniform("mobilenetv2"), Sigma: 1,
		RatePerSec: 2000, Jobs: 400, Clients: 8, Seed: 3,
	})
	opts.MaxSimTime = trace[len(trace)-1].At + 4*sim.Second
	plain := MustRunTrace(MustNewSystem("Triton"), trace, opts)
	batched := MustRunTrace(NewTritonBatching(sim.Millisecond, 16), trace, opts)
	if batched.Throughput() <= plain.Throughput()*1.1 {
		t.Fatalf("batching did not raise saturated throughput: %.1f vs %.1f",
			batched.Throughput(), plain.Throughput())
	}
}
