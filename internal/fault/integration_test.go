package fault_test

import (
	"bytes"
	"crypto/sha256"
	"testing"

	"paella/internal/fault"
	"paella/internal/metrics"
	"paella/internal/model"
	"paella/internal/serving"
	"paella/internal/sim"
	"paella/internal/trace"
	"paella/internal/workload"
)

// midIntensityPlan is the acceptance scenario: one retired SM, one PCIe
// brownout window, and 1% notification loss — all mid-run.
func midIntensityPlan(seed int64, horizon sim.Time) *fault.Plan {
	return &fault.Plan{
		Seed: seed,
		Events: []fault.Event{
			{At: 0, Kind: fault.KindDropNotifs, Drop: 0.01, Dup: 0.002},
			{At: horizon / 4, Kind: fault.KindRetireSM, SM: 0},
			{At: horizon / 3, Kind: fault.KindPCIeBrownout, Factor: 0.4},
			{At: horizon * 2 / 3, Kind: fault.KindPCIeRestore},
		},
	}
}

func chaosTrace(t *testing.T, jobs int) ([]workload.Request, []*model.Model) {
	t.Helper()
	models := model.Table2Models()[:2]
	names := make([]string, len(models))
	for i, m := range models {
		names[i] = m.Name
	}
	reqs, err := workload.Generate(workload.Spec{
		Mix: workload.Uniform(names...), Sigma: 1.5,
		RatePerSec: 300, Jobs: jobs, Clients: 4, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return reqs, models
}

func runFaulty(t *testing.T, reqs []workload.Request, models []*model.Model,
	plan *fault.Plan, rec *trace.Recorder) (*metrics.Collector, *fault.Injector) {
	t.Helper()
	sys, err := serving.NewSystem("Paella")
	if err != nil {
		t.Fatal(err)
	}
	opts := serving.DefaultOptions()
	opts.Models = models
	opts.Faults = plan
	opts.Trace = rec
	opts.MaxSimTime = reqs[len(reqs)-1].At + 30*sim.Second
	col, err := serving.RunTrace(sys, reqs, opts)
	if err != nil {
		t.Fatal(err)
	}
	inj := sys.(interface{ Injector() *fault.Injector }).Injector()
	return col, inj
}

// TestMidIntensityZeroLoss is the PR's acceptance bar: under the
// mid-intensity plan (1 retired SM + a PCIe brownout + 1% notification
// drop), every admitted job still ends in exactly one completion or one
// typed failure — none are silently lost.
func TestMidIntensityZeroLoss(t *testing.T) {
	reqs, models := chaosTrace(t, 400)
	plan := midIntensityPlan(5, reqs[len(reqs)-1].At)
	col, inj := runFaulty(t, reqs, models, plan, nil)

	if lost := len(reqs) - col.Len(); lost != 0 {
		t.Fatalf("%d of %d jobs lost (no terminal record)", lost, len(reqs))
	}
	for _, r := range col.Records() {
		if !r.Failed && r.Delivered == 0 {
			t.Fatalf("record %d neither delivered nor failed", r.ID)
		}
	}
	applied := inj.Applied()
	for _, k := range []fault.Kind{fault.KindDropNotifs, fault.KindRetireSM,
		fault.KindPCIeBrownout, fault.KindPCIeRestore} {
		if applied[k] != 1 {
			t.Fatalf("event %s applied %d times, want 1 (%s)", k, applied[k], inj.Summary())
		}
	}
	// Degradation must be graceful, not free: the faults leave a visible
	// footprint in ok-latency versus a healthy run of the same trace.
	healthy, _ := runFaulty(t, reqs, models, &fault.Plan{Seed: 5}, nil)
	if col.Succeeded().P99() <= healthy.P99() {
		t.Fatalf("faulty p99 %v not above healthy p99 %v", col.Succeeded().P99(), healthy.P99())
	}
}

// TestInjectorSkipsAbsentTargets: events whose target is not part of the
// run (no cluster, no VRAM budget, out-of-range client) are counted as
// skipped, so one plan works across experiment shapes.
func TestInjectorSkipsAbsentTargets(t *testing.T) {
	reqs, models := chaosTrace(t, 50)
	plan := &fault.Plan{
		Seed: 1,
		Events: []fault.Event{
			{At: 0, Kind: fault.KindCrashReplica, Replica: 0},          // no cluster
			{At: 0, Kind: fault.KindVRAMPressure, Bytes: 1 << 20},      // no VRAM budget
			{At: 0, Kind: fault.KindDisconnectClient, Client: 1 << 20}, // out of range
			{At: 1 * sim.Microsecond, Kind: fault.KindRetireSM, SM: 0}, // applies
		},
	}
	col, inj := runFaulty(t, reqs, models, plan, nil)
	if col.Len() != len(reqs) {
		t.Fatalf("lost jobs under skip-only plan: %d of %d", col.Len(), len(reqs))
	}
	skipped, applied := inj.Skipped(), inj.Applied()
	for _, k := range []fault.Kind{fault.KindCrashReplica, fault.KindVRAMPressure,
		fault.KindDisconnectClient} {
		if skipped[k] != 1 {
			t.Fatalf("event %s skipped %d times, want 1", k, skipped[k])
		}
	}
	if applied[fault.KindRetireSM] != 1 {
		t.Fatalf("retire-sm applied %d times, want 1", applied[fault.KindRetireSM])
	}
}

// TestFaultDeterminism (satellite 5): the same seed and FaultPlan replay
// byte-identically — metrics snapshot and structured trace both — while a
// different plan seed shifts the probabilistic drops and so the timings.
func TestFaultDeterminism(t *testing.T) {
	reqs, models := chaosTrace(t, 200)
	horizon := reqs[len(reqs)-1].At
	plan := func(seed int64) *fault.Plan {
		p := midIntensityPlan(seed, horizon)
		p.Events[0].Drop = 0.05 // enough loss that seeds visibly diverge
		return p
	}
	// The trace is compared by its SHA-256, written straight into the
	// hash, so neither run holds its rendered trace.
	snapshot := func(seed int64) (string, [sha256.Size]byte) {
		rec := trace.New()
		col, _ := runFaulty(t, reqs, models, plan(seed), rec)
		var mbuf bytes.Buffer
		if err := col.WriteJSON(&mbuf); err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		if err := rec.WriteChromeTrace(h); err != nil {
			t.Fatal(err)
		}
		return mbuf.String(), [sha256.Size]byte(h.Sum(nil))
	}
	m1, t1 := snapshot(5)
	m2, t2 := snapshot(5)
	if m1 != m2 {
		t.Fatal("same seed+plan: metrics snapshots differ")
	}
	if t1 != t2 {
		t.Fatal("same seed+plan: traces differ")
	}
	m3, _ := snapshot(6)
	if m1 == m3 {
		t.Fatal("different plan seed reproduced byte-identical metrics")
	}
}
