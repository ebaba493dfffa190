package serving

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"paella/internal/cluster"
	"paella/internal/core"
	"paella/internal/gpu"
	"paella/internal/sim"
	"paella/internal/trace"
	"paella/internal/workload"
)

// TestFleetArriveRetriesUnroutable drains a one-replica fleet's only
// replica for the first millisecond of a trace: every arrival in that
// window is refused with -1, and Arrive must resubmit it unchanged until
// the replica returns, so every request completes, carries its tenant, and
// keeps its arrival as its submit time.
func TestFleetArriveRetriesUnroutable(t *testing.T) {
	opts := tinyOpts()
	opts.Devices = []gpu.Config{opts.DevCfg}
	f, err := NewFleet(opts)
	if err != nil {
		t.Fatal(err)
	}
	trace := workload.MustGenerate(workload.Spec{Mix: workload.Uniform("tinynet"), Sigma: 1.5,
		RatePerSec: 20000, Jobs: 40, Clients: 4, Tenants: 2, Seed: 42})
	const drain = sim.Millisecond
	f.SetRoutable(0, false)
	f.Env().At(drain, func() { f.SetRoutable(0, true) })
	conn := f.Connect()
	completed, refused := 0, 0
	conn.OnComplete = func(uint64) { completed++ }
	f.Arrive(trace, func(req core.Request) int {
		g := conn.Submit(req)
		if g == -1 {
			refused++
		}
		return g
	})
	f.RunUntil(trace[len(trace)-1].At + sim.Second)

	if refused == 0 || trace[0].At >= drain {
		t.Fatalf("no arrival was refused (first at %v); the drain window misses the trace", trace[0].At)
	}
	if completed != len(trace) {
		t.Fatalf("completed %d of %d requests (%d refusals retried)", completed, len(trace), refused)
	}
	for _, rec := range f.Collector().Records() {
		r := trace[rec.ID-1]
		if rec.Submit != r.At || rec.Tenant != r.Tenant || rec.Model != r.Model {
			t.Fatalf("request %d recorded as %+v, arrived as %+v", rec.ID, rec, r)
		}
		if r.At < drain && rec.Delivered < drain {
			t.Fatalf("request %d arrived at %v during the drain but was delivered at %v", rec.ID, r.At, rec.Delivered)
		}
	}
}

// TestFleetArriveFailsWithNoLiveReplica crashes both replicas of a 2×T4
// fleet at 5 ms, inside a trace of 20 arrivals 1 ms apart. Every request
// must terminate: the ones that arrive after the crash fail with
// cluster.ErrReplicaCrashed instead of being dropped, so completed + failed
// equals submitted.
func TestFleetArriveFailsWithNoLiveReplica(t *testing.T) {
	opts := tinyOpts()
	opts.Devices = []gpu.Config{opts.DevCfg, opts.DevCfg}
	f, err := NewFleet(opts)
	if err != nil {
		t.Fatal(err)
	}
	const crashAt = 5 * sim.Millisecond
	f.Env().At(crashAt, func() { f.Crash(0); f.Crash(1) })
	var reqs []workload.Request
	for i := 0; i < 20; i++ {
		reqs = append(reqs, workload.Request{At: sim.Time(i) * sim.Millisecond, Model: "tinynet", Client: i % 2})
	}
	conn := f.Connect()
	completed, failed, late := 0, 0, 0
	conn.OnComplete = func(uint64) { completed++ }
	conn.OnFailed = func(id uint64, err error) {
		failed++
		if !errors.Is(err, cluster.ErrReplicaCrashed) {
			t.Errorf("request %d failed with %v, want cluster.ErrReplicaCrashed", id, err)
		}
		if reqs[id-1].At > crashAt {
			late++
		}
	}
	f.Arrive(reqs, conn.Submit)
	f.RunUntil(reqs[len(reqs)-1].At + sim.Second)

	if completed+failed != len(reqs) {
		t.Fatalf("completed %d + failed %d of %d submitted: %d requests never terminated",
			completed, failed, len(reqs), len(reqs)-completed-failed)
	}
	if late == 0 {
		t.Fatal("no arrival after the crash failed; the trace misses the crash")
	}
}

// TestFleetTraceObservesControlEnv: a single-Env fleet built with
// Options.Trace records one routing instant per request on the control
// Env, as RunTrace's systems record theirs.
func TestFleetTraceObservesControlEnv(t *testing.T) {
	opts := tinyOpts()
	opts.Devices = []gpu.Config{opts.DevCfg, opts.DevCfg}
	opts.Trace = trace.New()
	f, err := NewFleet(opts)
	if err != nil {
		t.Fatal(err)
	}
	reqs := tinyTrace(30, 2, 2000)
	f.Arrive(reqs, f.Connect().Submit)
	f.RunUntil(reqs[len(reqs)-1].At + sim.Second)

	var buf bytes.Buffer
	if err := opts.Trace.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), `"cat":"route"`); got != len(reqs) {
		t.Fatalf("recorded %d routing instants for %d requests", got, len(reqs))
	}
}
