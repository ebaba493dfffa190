package autoscale_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"testing"

	"paella/internal/autoscale"
	"paella/internal/cluster"
	"paella/internal/compiler"
	"paella/internal/core"
	"paella/internal/gateway"
	"paella/internal/gpu"
	"paella/internal/model"
	"paella/internal/sched"
	"paella/internal/sim"
	"paella/internal/telemetry"
	"paella/internal/trace"
	"paella/internal/vram"
	"paella/internal/workload"
)

// autoscaleModel synthesizes a small weighted model so cold starts page
// real bytes: exec times are hundreds of microseconds (a busy replica
// queues visibly at the cell's rates) and weights are megabytes (a warmup
// costs a visible PCIe transfer).
func autoscaleModel(name string, execUs, weightMiB int) *model.Model {
	return model.Generate(model.ZooEntry{
		Name:        name,
		ExecTime:    sim.Time(execUs) * sim.Microsecond,
		Executions:  6,
		Unique:      3,
		InputBytes:  4096,
		OutputBytes: 4096,
		WeightBytes: weightMiB << 20,
	})
}

// diurnalCell compresses a day into 100ms: trough at the trace's start and
// end, peak in the middle, so every run exercises scale-down (over-
// provisioned trough) and scale-up (under-provisioned ramp).
func diurnalCell(seed int64) workload.TrafficSpec {
	return workload.TrafficSpec{
		Shape:          workload.ShapeDiurnal,
		Mix:            workload.Uniform("autonet-a", "autonet-b"),
		Sigma:          1.0,
		BaseRatePerSec: 9000,
		Amplitude:      0.8,
		Period:         100 * sim.Millisecond,
		Duration:       200 * sim.Millisecond,
		Clients:        100_000,
		Seed:           seed,
	}
}

// spikeCell is the flash crowd: steady base load, then 6× for 40ms.
func spikeCell(seed int64) workload.TrafficSpec {
	return workload.TrafficSpec{
		Shape:          workload.ShapeSpike,
		Mix:            workload.Uniform("autonet-a", "autonet-b"),
		Sigma:          1.0,
		BaseRatePerSec: 2500,
		SpikeFactor:    8,
		SpikeAt:        60 * sim.Millisecond,
		SpikeDuration:  40 * sim.Millisecond,
		Duration:       180 * sim.Millisecond,
		Clients:        50_000,
		Seed:           seed,
	}
}

// autoscaleResult captures everything observable about one autoscaled run:
// per-request metrics, failure and scaling-event logs, the conservation
// ledger, cost/attainment summary, telemetry export, and (traced cells)
// merged trace bytes.
type autoscaleResult struct {
	metricsJSON   string
	failures      string
	events        string
	summary       string
	telemetryJSON string
	traceBytes    string
	counts        autoscale.Counts
	stats         autoscale.Stats
	outstanding   int
}

// runAutoscaleCell executes one cell of the autoscale matrix on the World
// engine: a 4×T4 fleet with per-replica VRAM budgets (so warmup
// pages weights over PCIe), a Scaler driving the named policy, and an
// open-loop trace from the traffic generators.
func runAutoscaleCell(t *testing.T, policyName string, spec workload.TrafficSpec, traced bool) autoscaleResult {
	t.Helper()
	w := sim.NewWorld()
	defer w.Close()

	var ctrlRec *trace.Recorder
	shardRecs := make([]*trace.Recorder, 4)
	if traced {
		ctrlRec = trace.New()
		w.Ctrl().SetRecorder(ctrlRec)
	}
	// The control timeline carries the autoscaler's own instruments
	// (active_replicas, scale_ups, cold_start_ns, ...) so they join the
	// repeatability comparison.
	ctrlMt := telemetry.NewMeter("front", 0)
	w.Ctrl().SetMeter(ctrlMt)
	shardMts := []*telemetry.Meter{ctrlMt}

	devs := []gpu.Config{gpu.TeslaT4(), gpu.TeslaT4(), gpu.TeslaT4(), gpu.TeslaT4()}
	c, err := cluster.NewWorldWithConfig(w, devs, func(int, gpu.Config) core.Config {
		cfg := core.DefaultConfig(sched.NewPaella(10000))
		cfg.VRAM = &vram.Config{CapacityBytes: 32 << 20}
		return cfg
	}, gateway.NewLeastLoaded(), func(i int, shard *sim.Env) {
		if traced {
			shardRecs[i] = trace.New()
			shard.SetRecorder(shardRecs[i])
		}
		mt := telemetry.NewMeter(fmt.Sprintf("replica%d", i), 0)
		shard.SetMeter(mt)
		shardMts = append(shardMts, mt)
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []*model.Model{
		autoscaleModel("autonet-a", 400, 8),
		autoscaleModel("autonet-b", 300, 6),
	} {
		if err := c.RegisterModel(m, compiler.DefaultConfig(), 1); err != nil {
			t.Fatal(err)
		}
	}

	pol, err := autoscale.New(policyName)
	if err != nil {
		t.Fatal(err)
	}
	s, err := autoscale.NewScaler(w.Ctrl(), c, autoscale.Config{
		Min: 1, Max: 4, Initial: 3,
		Interval: 5 * sim.Millisecond,
		Policy:   pol,
		SLO: telemetry.SLOConfig{
			Name: "jct@5ms", Deadline: 5 * sim.Millisecond, Target: 0.9,
			Short: sim.Millisecond, Long: 10 * sim.Millisecond,
		},
		DollarsPerHour: []float64{0.53, 0.53, 0.53, 0.53},
	})
	if err != nil {
		t.Fatal(err)
	}
	front := autoscale.NewFront(s)
	fails := map[uint64]string{}
	front.OnFailed = func(id uint64, err error) { fails[id] = err.Error() }

	reqs, err := workload.GenerateTraffic(spec)
	if err != nil {
		t.Fatal(err)
	}
	last := sim.Time(0)
	for i, r := range reqs {
		id := uint64(i + 1)
		req := core.Request{ID: id, Model: r.Model, Client: r.Client, Tenant: r.Tenant, Submit: r.At}
		last = r.At
		w.Ctrl().At(r.At, func() { front.Submit(req) })
	}
	s.Start()
	w.RunUntil(last + 2*sim.Second)

	res := autoscaleResult{counts: front.Counts(), stats: s.ScaleStats(), outstanding: front.Outstanding()}
	recs := c.Collector().Records()
	sort.Slice(recs, func(a, b int) bool { return recs[a].ID < recs[b].ID })
	mj, err := json.Marshal(recs)
	if err != nil {
		t.Fatal(err)
	}
	res.metricsJSON = string(mj)
	var fids []uint64
	for id := range fails {
		fids = append(fids, id)
	}
	sort.Slice(fids, func(a, b int) bool { return fids[a] < fids[b] })
	for _, id := range fids {
		res.failures += fmt.Sprintf("%d:%s;", id, fails[id])
	}
	for _, e := range s.Events() {
		res.events += fmt.Sprintf("%d:r%d:%s:%d;", e.At, e.Replica, e.Kind, e.Active)
	}
	now := w.Ctrl().Now()
	res.summary = fmt.Sprintf("cost=%.9f repsec=%.6f mean=%.6f attain=%.6f target=%d",
		s.Cost(now), s.ReplicaSeconds(now), s.MeanActive(now), s.Attainment(), s.Target())
	if traced {
		var buf bytes.Buffer
		all := []*trace.Recorder{ctrlRec}
		all = append(all, shardRecs...)
		if err := trace.WriteChromeTraceAll(&buf, all...); err != nil {
			t.Fatal(err)
		}
		res.traceBytes = buf.String()
	}
	var tbuf bytes.Buffer
	if err := telemetry.WriteJSON(&tbuf, now, telemetry.Export{Meters: shardMts}); err != nil {
		t.Fatal(err)
	}
	res.telemetryJSON = tbuf.String()
	return res
}

// TestAutoscaleSerialParallelBitIdentical runs the autoscaling matrix —
// policies × traffic shapes × seeds — once per cell on the World engine,
// with replica churn (cold-start warmups, drains, parks) mid-trace. Each
// cell must complete requests, conserve every request in exactly one
// terminal outcome with none outstanding, and exercise the drain protocol.
// The name predates the deletion of the parallel mode it once compared
// against; TestAutoscaleRunRepeatable checks run-to-run byte identity.
func TestAutoscaleSerialParallelBitIdentical(t *testing.T) {
	shapes := []struct {
		name string
		mk   func(seed int64) workload.TrafficSpec
	}{
		{"diurnal", diurnalCell},
		{"spike", spikeCell},
	}
	for _, policy := range []string{"queue-depth", "predictive", "slo-burn"} {
		for _, sh := range shapes {
			for _, seed := range []int64{1, 2} {
				name := fmt.Sprintf("%s/%s/seed%d", policy, sh.name, seed)
				t.Run(name, func(t *testing.T) {
					res := runAutoscaleCell(t, policy, sh.mk(seed), false)
					if res.counts.Completed == 0 {
						t.Fatal("no requests completed; workload broken")
					}
					if !res.counts.Conserved() {
						t.Fatalf("conservation violated: %+v", res.counts)
					}
					if res.outstanding != 0 {
						t.Fatalf("%d requests never terminated", res.outstanding)
					}
					// Every cell must exercise the drain protocol: the fleet
					// starts over-provisioned for the trough/base load, so every
					// policy retires replicas — and those drains must fully park.
					if res.stats.ScaleDowns == 0 || res.stats.Parks == 0 {
						t.Fatalf("drain column unexercised: %+v", res.stats)
					}
				})
			}
		}
	}
}

// TestAutoscaleColdStartPaging pins the cold-start column: the reactive
// policies must scale up mid-trace and those warmups must page real bytes
// through the VRAM manager over the PCIe link.
func TestAutoscaleColdStartPaging(t *testing.T) {
	for _, policy := range []string{"queue-depth", "predictive"} {
		t.Run(policy, func(t *testing.T) {
			res := runAutoscaleCell(t, policy, diurnalCell(1), false)
			if res.stats.ScaleUps == 0 || res.stats.ColdStarts == 0 {
				t.Fatalf("no cold starts: %+v", res.stats)
			}
			if res.stats.ColdStartBytes == 0 {
				t.Fatalf("cold starts paged no bytes: %+v", res.stats)
			}
			if res.stats.ColdStartNs == 0 {
				t.Fatalf("cold starts took no time: %+v", res.stats)
			}
		})
	}
}

// TestAutoscaleRunRepeatable: the traced queue-depth/diurnal/seed1 cell
// run twice gives identical metrics, failure, scaling-event, cost,
// telemetry and trace bytes.
func TestAutoscaleRunRepeatable(t *testing.T) {
	a := runAutoscaleCell(t, "queue-depth", diurnalCell(1), true)
	b := runAutoscaleCell(t, "queue-depth", diurnalCell(1), true)
	if a.traceBytes == "" {
		t.Fatal("traced cell recorded no trace")
	}
	if a.metricsJSON != b.metricsJSON || a.failures != b.failures || a.events != b.events ||
		a.summary != b.summary || a.telemetryJSON != b.telemetryJSON || a.traceBytes != b.traceBytes {
		t.Fatal("runs with identical seeds diverge")
	}
}
