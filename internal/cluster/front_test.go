package cluster_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"paella/internal/cluster"
	"paella/internal/compiler"
	"paella/internal/core"
	"paella/internal/gateway"
	"paella/internal/gpu"
	"paella/internal/llm"
	"paella/internal/metrics"
	"paella/internal/model"
	"paella/internal/sched"
	"paella/internal/sim"
	"paella/internal/telemetry"
)

// counterTotal sums the named instrument's per-window counts as the
// meter's JSON export reports them.
func counterTotal(t *testing.T, mt *telemetry.Meter, name string) int64 {
	t.Helper()
	var buf bytes.Buffer
	if err := telemetry.WriteJSON(&buf, 0, telemetry.Export{Meters: []*telemetry.Meter{mt}}); err != nil {
		t.Fatal(err)
	}
	var ex struct {
		Meters []struct {
			Metrics []struct {
				Name    string
				Windows []struct{ Count int64 }
			}
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &ex); err != nil {
		t.Fatal(err)
	}
	var n int64
	for _, m := range ex.Meters[0].Metrics {
		if m.Name == name {
			for _, w := range m.Windows {
				n += w.Count
			}
		}
	}
	return n
}

// TestRoutedCountsAcceptedSubmissionsOnly: a request refused by a full
// ring and retried later is routed once, not once per attempt — the
// routed counter and predicted-latency histogram count only submissions a
// replica accepted.
func TestRoutedCountsAcceptedSubmissionsOnly(t *testing.T) {
	env := sim.NewEnv()
	mt := telemetry.NewMeter("front", 0)
	env.SetMeter(mt)
	c, err := cluster.NewWithConfig(env, []gpu.Config{gpu.TeslaT4(), gpu.TeslaT4()},
		func(int, gpu.Config) core.Config { return core.DefaultConfig(sched.NewPaella(10000)) },
		gateway.NewPredictedLatency())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterModel(model.TinyNet(), compiler.DefaultConfig(), 1); err != nil {
		t.Fatal(err)
	}
	conn := c.Connect()
	completed := 0
	conn.OnComplete = func(uint64) { completed++ }
	accepted, refused := 0, 0
	var submit func(req core.Request)
	submit = func(req core.Request) {
		if conn.Submit(req) < 0 {
			refused++
			env.After(20*sim.Microsecond, func() { submit(req) })
			return
		}
		accepted++
	}
	// More requests at t=0 than both rings hold.
	const n = 2*core.RingCapacity + 40
	for i := 0; i < n; i++ {
		id := uint64(i + 1)
		env.At(0, func() { submit(core.Request{ID: id, Model: "tinynet", Submit: 0}) })
	}
	env.Run()
	if refused == 0 {
		t.Fatal("no submission hit a full ring; the test exercises nothing")
	}
	if accepted != n || completed != n {
		t.Fatalf("accepted %d, completed %d, want %d", accepted, completed, n)
	}
	if got := counterTotal(t, mt, "gateway/predicted-latency/routed"); got != n {
		t.Fatalf("routed counter = %d after %d refusals, want %d accepted submissions", got, refused, n)
	}
	if observed := counterTotal(t, mt, "gateway/predicted-latency/predicted_ns"); observed != n {
		t.Fatalf("predicted_ns observations = %d, want %d", observed, n)
	}
}

var conservationTenants = []string{"tenant-a", "tenant-b", "tenant-c"}

// checkAdmissionLedger asserts the gateway's admission accounting agrees
// three ways: the fleet counters, the per-tenant counters, and
// Admission.Stats() all sum to the submitted (tenanted) requests.
func checkAdmissionLedger(t *testing.T, mt *telemetry.Meter, a *gateway.Admission, submitted, shed int) {
	t.Helper()
	admittedN, shedN := counterTotal(t, mt, "gateway/admitted"), counterTotal(t, mt, "gateway/shed")
	if admittedN+shedN != int64(submitted) {
		t.Errorf("gateway/admitted %d + gateway/shed %d != %d submitted", admittedN, shedN, submitted)
	}
	if shedN != int64(shed) || a.TotalShed() != shed {
		t.Errorf("shed counter %d, Admission.TotalShed %d, want %d shed records", shedN, a.TotalShed(), shed)
	}
	var statsAdmitted int
	for _, st := range a.Stats() {
		statsAdmitted += st.Admitted
		ta := counterTotal(t, mt, "gateway/tenant/"+st.Tenant+"/admitted")
		ts := counterTotal(t, mt, "gateway/tenant/"+st.Tenant+"/shed")
		if ta != int64(st.Admitted) || ts != int64(st.Shed) {
			t.Errorf("%s counters admitted=%d shed=%d, Stats admitted=%d shed=%d",
				st.Tenant, ta, ts, st.Admitted, st.Shed)
		}
	}
	if int64(statsAdmitted) != admittedN {
		t.Errorf("Stats admitted %d != gateway/admitted %d", statsAdmitted, admittedN)
	}
	if shed == 0 || shed == submitted {
		t.Errorf("shed %d of %d: admission must be over-offered but not shut", shed, submitted)
	}
}

// countShed returns the records refused by admission.
func countShed(col *metrics.Collector) int {
	n := 0
	for _, r := range col.Records() {
		if r.FailureReason == gateway.ErrTenantShed.Error() {
			n++
		}
	}
	return n
}

// TestGatewayConservationCluster: with three tenants over-offering the
// admission rate, every Cluster submission ends completed or shed.
func TestGatewayConservationCluster(t *testing.T) {
	env := sim.NewEnv()
	mt := telemetry.NewMeter("front", 0)
	env.SetMeter(mt)
	c, err := cluster.New(env, []gpu.Config{gpu.TeslaT4(), gpu.TeslaT4(), gpu.TeslaT4()},
		func() sched.Policy { return sched.NewPaella(10000) }, gateway.NewLeastLoaded())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterModel(model.TinyNet(), compiler.DefaultConfig(), 1); err != nil {
		t.Fatal(err)
	}
	c.SetAdmission(gateway.NewAdmission(gateway.TenantLimit{RatePerSec: 2000, Burst: 4}))
	conn := c.Connect()
	completed, failed := 0, 0
	conn.OnComplete = func(uint64) { completed++ }
	conn.OnFailed = func(uint64, error) { failed++ }
	const n = 300
	for i := 0; i < n; i++ {
		id, tn := uint64(i+1), conservationTenants[i%len(conservationTenants)]
		env.At(sim.Time(i)*20*sim.Microsecond, func() {
			conn.Submit(core.Request{ID: id, Model: "tinynet", Tenant: tn, Submit: env.Now()})
		})
	}
	env.Run()
	col := c.Collector()
	shed := countShed(col)
	if completed+shed != n || failed != shed || col.Len() != n {
		t.Fatalf("completed %d + shed %d != %d submitted (failed=%d, records=%d)",
			completed, shed, n, failed, col.Len())
	}
	checkAdmissionLedger(t, mt, c.Admission(), n, shed)
}

// TestGatewayConservationPD: the same ledger on the generative front,
// colocated and disaggregated (per-engine configs, as a heterogeneous pool
// would set them).
func TestGatewayConservationPD(t *testing.T) {
	for _, decodes := range []int{0, 2} {
		t.Run(fmt.Sprintf("decodes=%d", decodes), func(t *testing.T) {
			env := sim.NewEnv()
			mt := telemetry.NewMeter("front", 0)
			env.SetMeter(mt)
			engines := make([]llm.Config, 3+decodes)
			for i := range engines {
				engines[i] = llmTestConfig(256)
			}
			pd, err := cluster.NewPD(env, cluster.PDConfig{Prefills: 3, Decodes: decodes, Engines: engines})
			if err != nil {
				t.Fatal(err)
			}
			pd.SetAdmission(gateway.NewAdmission(gateway.TenantLimit{RatePerSec: 2000, Burst: 4}))
			completed, shed := 0, 0
			pd.OnFinish = func(rec metrics.JobRecord) {
				switch {
				case !rec.Failed:
					completed++
				case rec.FailureReason == gateway.ErrTenantShed.Error():
					shed++
				}
			}
			const n = 300
			for i := 0; i < n; i++ {
				req := llm.Request{
					ID: uint64(i + 1), Client: i % 4, Submit: sim.Time(i) * 20 * sim.Microsecond,
					Prompt: 8 + i%16, Output: 2 + i%8,
					Tenant: conservationTenants[i%len(conservationTenants)],
				}
				env.At(req.Submit, func() { pd.Submit(req) })
			}
			env.RunUntil(sim.Time(n)*20*sim.Microsecond + 2*sim.Second)
			if pd.KVPeakPages() == 0 {
				t.Fatal("no KV pages used")
			}
			if completed+shed != n || pd.Collector().Len() != n || pd.InFlight() != 0 {
				t.Fatalf("completed %d + shed %d != %d submitted (records=%d, inflight=%d)",
					completed, shed, n, pd.Collector().Len(), pd.InFlight())
			}
			checkAdmissionLedger(t, mt, pd.Admission(), n, shed)
		})
	}
}
