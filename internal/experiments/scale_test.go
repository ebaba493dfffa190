package experiments

import (
	"runtime"
	"testing"

	"paella/internal/sim"
)

// maxEventsPerReq bounds the engine events per completed request on the
// probe cell, one T4 replica serving 400 requests of the scale workload on
// the legacy engine. It is about 5 % above the probe's count with one
// completion event per GPU wave, one notification post per device event
// and due time, and process self-wakeups run in place (1,346.4; it was
// 1,444.3 with one post per emit and every wakeup queued, and 3,349.4 with
// one completion event per SM per wave).
const maxEventsPerReq = 1414

// TestScaleProbeEventsPerRequest gates event coalescing: the probe's event
// count is deterministic, so a regression fails on any hardware.
func TestScaleProbeEventsPerRequest(t *testing.T) {
	res, err := runScaleEngine("legacy", 1, 400)
	if err != nil {
		t.Fatal(err)
	}
	epr := float64(res.steps) / float64(res.completed)
	t.Logf("probe cell: %.1f events per completed request (gate: ≤ %d)", epr, maxEventsPerReq)
	if epr > maxEventsPerReq {
		t.Fatalf("%.1f events per completed request (> %d): event coalescing regressed", epr, maxEventsPerReq)
	}
}

// TestHotLoopAllocsPerEvent gates the hot loop's steady-state heap
// allocations per engine event on the scale workload (1 replica, 600
// requests, legacy engine). The first half of the trace warms every pool
// and arena to its high-water mark, then the second half is measured with
// runtime.MemStats. The rate is fractional — per-job admission still
// allocates a few records, amortized over thousands of events per job — and
// must stay below 0.5, the point where a `go test -benchmem` report would
// round to one allocation per event. Like the event count it does not
// depend on the hardware.
func TestHotLoopAllocsPerEvent(t *testing.T) {
	r, err := newScaleRun("legacy", 1, 600)
	if err != nil {
		t.Fatal(err)
	}
	r.RunUntil(r.reqs[len(r.reqs)/2].At)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	s0 := r.steps()
	r.RunUntil(r.reqs[len(r.reqs)-1].At + 8*sim.Second)
	runtime.ReadMemStats(&m1)
	steps := r.steps() - s0
	if steps == 0 {
		t.Fatal("allocs probe measured no events")
	}
	apew := float64(m1.Mallocs-m0.Mallocs) / float64(steps)
	t.Logf("hot loop: %.4f allocs/event steady-state (gate: < 0.5)", apew)
	if apew >= 0.5 {
		t.Fatalf("hot loop allocates %.4f per event (≥ 0.5): the zero-allocation invariant regressed", apew)
	}
}
