package serving

import (
	"encoding/json"
	"testing"

	"paella/internal/core"
	"paella/internal/sim"
	"paella/internal/workload"
)

// saturatingTinyTrace overloads the device enough that same-position tinynet
// kernels pile up in the dispatcher's policy queue — the precondition for
// batch formation.
func saturatingTinyTrace(jobs int) []workload.Request {
	return workload.MustGenerate(workload.Spec{
		Mix:        workload.Uniform("tinynet"),
		Sigma:      1.5,
		RatePerSec: 20000,
		Jobs:       jobs,
		Clients:    8,
		Seed:       7,
	})
}

// TestPaellaBatchingCoalesces: under saturating load the Paella dispatcher
// forms batches (width ≥ 2), completes every job, and charges every batch
// member's client in the deficit bookkeeping (each member shows a dispatch).
func TestPaellaBatchingCoalesces(t *testing.T) {
	trace := saturatingTinyTrace(120)
	sys := MustNewSystem("Paella-batch")
	col := MustRunTrace(sys, trace, tinyOpts())
	if col.Len() != len(trace) {
		t.Fatalf("delivered %d of %d", col.Len(), len(trace))
	}
	st := sys.(*paellaSystem).Dispatcher().Stats()
	if st.Batches == 0 {
		t.Fatal("saturating load formed no batches")
	}
	if st.BatchedJobs < 2*st.Batches {
		t.Fatalf("batch width invariant violated: %d jobs in %d batches",
			st.BatchedJobs, st.Batches)
	}
	for _, r := range col.Records() {
		if r.FirstDispatch == 0 {
			t.Fatalf("record without dispatch: %+v", r)
		}
	}
}

// TestPaellaBatchingLowLoadNoHolds: at low occupancy the adaptive window
// disengages — no formation holds, so unloaded latency is byte-identical to
// the unbatched dispatcher.
func TestPaellaBatchingLowLoadNoHolds(t *testing.T) {
	trace := tinyTrace(20, 2, 100) // ~10ms apart; queue depth never builds
	sys := MustNewSystem("Paella-batch")
	batched := MustRunTrace(sys, trace, tinyOpts())
	st := sys.(*paellaSystem).Dispatcher().Stats()
	if st.BatchHolds != 0 {
		t.Fatalf("low load armed %d formation holds, want 0", st.BatchHolds)
	}
	plain := MustRunTrace(MustNewSystem("Paella"), trace, tinyOpts())
	a, b := plain.JCTs(), batched.JCTs()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("low-load JCT %d diverged: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestPaellaMaxBatchOneIdentical: MaxBatch=1 must take exactly the unbatched
// dispatch path — per-request records are byte-identical to stock Paella
// even under saturating load, mirroring the paella-sim golden-trace pin.
func TestPaellaMaxBatchOneIdentical(t *testing.T) {
	trace := saturatingTinyTrace(80)
	plain := MustRunTrace(MustNewSystem("Paella"), trace, tinyOpts())
	b1 := MustRunTrace(NewPaellaTweaked("Paella-b1", func(cfg *core.Config) {
		cfg.MaxBatch, cfg.BatchWindow = 1, 50*sim.Microsecond
	}), trace, tinyOpts())
	pj, err := json.Marshal(plain.Records())
	if err != nil {
		t.Fatal(err)
	}
	bj, err := json.Marshal(b1.Records())
	if err != nil {
		t.Fatal(err)
	}
	if string(pj) != string(bj) {
		t.Fatal("MaxBatch=1 records diverge from unbatched Paella")
	}
}
