package cluster_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"paella/internal/cluster"
	"paella/internal/compiler"
	"paella/internal/core"
	"paella/internal/fault"
	"paella/internal/gateway"
	"paella/internal/gpu"
	"paella/internal/model"
	"paella/internal/sched"
	"paella/internal/sim"
	"paella/internal/telemetry"
	"paella/internal/trace"
)

// worldRunResult captures everything observable about one cluster run:
// metrics (every per-request record, JSON-encoded), the failure summary,
// and the merged Perfetto trace bytes.
type worldRunResult struct {
	metricsJSON   string
	failures      string
	traceBytes    string
	telemetryJSON string
	completed     int
	failed        int
}

// chaosLowPlan is the identity matrix's non-trivial fault column: a
// notification drop/dup fault and a PCIe brownout on replica 0, then a full
// replica-0 crash mid-run forcing failover.
func chaosLowPlan(seed int64) *fault.Plan {
	return &fault.Plan{
		Seed: seed,
		Events: []fault.Event{
			{At: 200 * sim.Microsecond, Kind: fault.KindDropNotifs, Drop: 0.05, Dup: 0.02},
			{At: 400 * sim.Microsecond, Kind: fault.KindPCIeBrownout, Factor: 0.5},
			{At: 900 * sim.Microsecond, Kind: fault.KindPCIeRestore},
			{At: 1200 * sim.Microsecond, Kind: fault.KindCrashReplica, Replica: 0},
		},
	}
}

// runWorldCluster executes one cell of the matrix on the World engine.
// maxBatch > 1 turns on dispatcher dynamic batching (the matrix's batching
// column): every replica batches same-kernel jobs with a 50µs formation
// window, which must not cost any determinism.
func runWorldCluster(t *testing.T, seed int64, mkBal func() gateway.Policy, plan *fault.Plan, traced bool, maxBatch int) worldRunResult {
	t.Helper()
	w := sim.NewWorld()
	defer w.Close()
	var ctrlRec *trace.Recorder
	shardRecs := make([]*trace.Recorder, 4)
	shardMts := make([]*telemetry.Meter, 4)
	if traced {
		ctrlRec = trace.New()
		w.Ctrl().SetRecorder(ctrlRec)
	}
	devs := []gpu.Config{gpu.TeslaT4(), gpu.TeslaT4(), gpu.TeslaT4(), gpu.TeslaT4()}
	c, err := cluster.NewWorldWithConfig(w, devs, func(int, gpu.Config) core.Config {
		cfg := core.DefaultConfig(sched.NewPaella(10000))
		if maxBatch > 1 {
			cfg.MaxBatch = maxBatch
			cfg.BatchWindow = 50 * sim.Microsecond
		}
		if plan != nil {
			// Faulty cells arm the kernel watchdog (and with it tolerant
			// notification handling), mirroring how the serving layer runs
			// fault plans.
			cfg.KernelTimeout = 50 * sim.Microsecond
		}
		return cfg
	}, mkBal(), func(i int, shard *sim.Env) {
		if traced {
			shardRecs[i] = trace.New()
			shard.SetRecorder(shardRecs[i])
		}
		// One meter per shard (meters are single-shard state), with an SLO
		// monitor so the alert stream joins the repeatability comparison.
		shardMts[i] = telemetry.NewMeter(fmt.Sprintf("replica%d", i), 0)
		shardMts[i].SLO(telemetry.SLOConfig{
			Name: "goodput@5ms", Deadline: 5 * sim.Millisecond, Target: 0.99,
			Short: sim.Millisecond, Long: 10 * sim.Millisecond,
		})
		shard.SetMeter(shardMts[i])
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterModel(model.TinyNet(), compiler.DefaultConfig(), 1); err != nil {
		t.Fatal(err)
	}
	conn := c.Connect()
	res := worldRunResult{}
	fails := map[uint64]string{}
	conn.OnComplete = func(uint64) { res.completed++ }
	conn.OnFailed = func(id uint64, err error) {
		res.failed++
		fails[id] = err.Error()
	}

	if plan != nil {
		inj, err := fault.NewInjector(w.Ctrl(), plan, fault.Targets{
			Device:     c.Dispatcher(0).Device(),
			Dispatcher: c.Dispatcher(0),
			Cluster:    c,
		})
		if err != nil {
			t.Fatal(err)
		}
		inj.Install()
	}

	// Deterministic open-loop arrivals from the seed (ids 1..n).
	rng := rand.New(rand.NewSource(seed))
	const n = 90
	at := sim.Time(0)
	last := sim.Time(0)
	for i := 0; i < n; i++ {
		at += sim.Time(rng.Intn(60)+5) * sim.Microsecond
		last = at
		id := uint64(i + 1)
		w.Ctrl().At(at, func() {
			conn.Submit(core.Request{ID: id, Model: "tinynet", Submit: w.Ctrl().Now()})
		})
	}
	w.RunUntil(last + 4*sim.Second)

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
	if err := telemetry.WriteJSON(&tbuf, w.Ctrl().Now(), telemetry.Export{Meters: shardMts}); err != nil {
		t.Fatal(err)
	}
	res.telemetryJSON = tbuf.String()
	return res
}

// TestWorldSerialParallelBitIdentical runs the cluster matrix — seeds ×
// balancers × fault plans × batching — once per cell on the World engine
// and checks that requests complete and that every one of the 90 ends in
// exactly one terminal outcome. The name predates the deletion of the
// parallel mode it once compared against; TestWorldRunRepeatable checks
// run-to-run byte identity.
func TestWorldSerialParallelBitIdentical(t *testing.T) {
	balancers := []struct {
		name string
		mk   func() gateway.Policy
	}{
		{"round-robin", gateway.NewRoundRobin},
		{"least-loaded", gateway.NewLeastLoaded},
		{"residency-aware", func() gateway.Policy { return gateway.NewResidencyAware(nil) }},
	}
	plans := []struct {
		name string
		mk   func(seed int64) *fault.Plan
	}{
		{"none", func(int64) *fault.Plan { return nil }},
		{"chaos-low", chaosLowPlan},
	}
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		for _, b := range balancers {
			for _, p := range plans {
				for _, maxBatch := range []int{0, 4} {
					name := fmt.Sprintf("seed%d/%s/%s/batch%d", seed, b.name, p.name, maxBatch)
					t.Run(name, func(t *testing.T) {
						res := runWorldCluster(t, seed, b.mk, p.mk(seed), false, maxBatch)
						if res.completed == 0 {
							t.Fatal("no requests completed; workload broken")
						}
						if res.completed+res.failed != 90 {
							t.Fatalf("conservation: %d completed + %d failed != 90",
								res.completed, res.failed)
						}
					})
				}
			}
		}
	}
}

// runWorldGateway executes one cell of the gateway matrix: a
// tenant-tagged workload routed by a gateway policy (predicted-latency or
// affinity) with optional token-bucket admission, on the World engine, with
// a meter on every timeline so the gateway's routing and admission
// instruments run. It returns the outcome counts.
func runWorldGateway(t *testing.T, seed int64, mkBal func() gateway.Policy, admitPS float64) worldRunResult {
	t.Helper()
	w := sim.NewWorld()
	defer w.Close()
	w.Ctrl().SetMeter(telemetry.NewMeter("front", 0))
	devs := []gpu.Config{gpu.TeslaT4(), gpu.TeslaT4(), gpu.TeslaT4(), gpu.TeslaT4()}
	c, err := cluster.NewWorldWithConfig(w, devs, func(int, gpu.Config) core.Config {
		return core.DefaultConfig(sched.NewPaella(10000))
	}, mkBal(), func(i int, shard *sim.Env) {
		shard.SetMeter(telemetry.NewMeter(fmt.Sprintf("replica%d", i), 0))
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterModel(model.TinyNet(), compiler.DefaultConfig(), 1); err != nil {
		t.Fatal(err)
	}
	if admitPS > 0 {
		// A shallow bucket (Burst 4) against the trace's ~28k req/s arrival
		// spike guarantees the shed path is exercised in-cell.
		c.SetAdmission(gateway.NewAdmission(gateway.AdmissionConfig{
			Default: gateway.TenantLimit{RatePerSec: admitPS, Burst: 4},
		}))
	}
	conn := c.Connect()
	res := worldRunResult{}
	conn.OnComplete = func(uint64) { res.completed++ }
	conn.OnFailed = func(uint64, error) { res.failed++ }
	rng := rand.New(rand.NewSource(seed))
	const n = 90
	at := sim.Time(0)
	last := sim.Time(0)
	tenants := []string{"tenant-a", "tenant-b", "tenant-c"}
	for i := 0; i < n; i++ {
		at += sim.Time(rng.Intn(60)+5) * sim.Microsecond
		last = at
		id := uint64(i + 1)
		tn := tenants[i%len(tenants)]
		session := uint64(i%5) + 1
		w.Ctrl().At(at, func() {
			conn.Submit(core.Request{ID: id, Model: "tinynet", Tenant: tn,
				Session: session, Submit: w.Ctrl().Now()})
		})
	}
	w.RunUntil(last + 4*sim.Second)
	return res
}

// TestWorldSerialParallelBitIdenticalGateway runs the gateway matrix —
// seeds × {predicted-latency, affinity} × {admission off, admission on} —
// once per cell and checks completion, conservation of the 90 requests,
// and that every admission cell sheds. The name predates the deletion of
// the parallel mode it once compared against.
func TestWorldSerialParallelBitIdenticalGateway(t *testing.T) {
	balancers := []struct {
		name string
		mk   func() gateway.Policy
	}{
		{"predicted-latency", gateway.NewPredictedLatency},
		{"affinity", func() gateway.Policy { return gateway.NewAffinity(0) }},
	}
	for _, seed := range []int64{1, 2, 3} {
		for _, b := range balancers {
			for _, admitPS := range []float64{0, 3000} {
				mode := "admit-off"
				if admitPS > 0 {
					mode = "admit-on"
				}
				name := fmt.Sprintf("seed%d/%s/%s", seed, b.name, mode)
				t.Run(name, func(t *testing.T) {
					res := runWorldGateway(t, seed, b.mk, admitPS)
					if res.completed == 0 {
						t.Fatal("no requests completed; workload broken")
					}
					if res.completed+res.failed != 90 {
						t.Fatalf("conservation: %d completed + %d failed != 90",
							res.completed, res.failed)
					}
					if admitPS > 0 && res.failed == 0 {
						t.Fatal("admission cell shed nothing; tighten the rate")
					}
				})
			}
		}
	}
}

// TestWorldRunRepeatable: the same traced, faulty, batching cell run twice
// gives identical metrics, failure, trace and telemetry bytes.
func TestWorldRunRepeatable(t *testing.T) {
	a := runWorldCluster(t, 11, gateway.NewLeastLoaded, chaosLowPlan(11), true, 4)
	b := runWorldCluster(t, 11, gateway.NewLeastLoaded, chaosLowPlan(11), true, 4)
	if a.metricsJSON != b.metricsJSON || a.failures != b.failures || a.traceBytes != b.traceBytes ||
		a.telemetryJSON != b.telemetryJSON {
		t.Fatal("runs with identical seeds diverge")
	}
}
