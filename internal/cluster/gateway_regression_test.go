package cluster_test

import (
	"bytes"
	"compress/gzip"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

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
)

// updateGolden regenerates the pre-refactor golden snapshots. The committed
// files were produced BEFORE routing was extracted from internal/cluster
// into internal/gateway, so running this test without the flag proves the
// extraction is behavior-preserving byte-for-byte: identical per-request
// metrics JSON, identical merged Perfetto trace bytes, and identical
// windowed telemetry export for every legacy balancer with the gateway's
// new machinery (admission, tenants, prediction) disabled.
var updateGolden = flag.Bool("update", false, "rewrite testdata golden snapshots")

// preGatewayBlob runs one deterministic cluster workload under the named
// balancer and returns every observable byte: sorted per-request metrics
// JSON, the telemetry export, and the merged trace.
func preGatewayBlob(t *testing.T, mkBal func() gateway.Policy, onWorld bool) []byte {
	t.Helper()
	devs := []gpu.Config{gpu.TeslaT4(), gpu.GTX1660Super(), gpu.TeslaT4()}
	// Small kernel graphs (traces stay commit-sized) with real weight
	// footprints (residency stays interesting against the 96 MiB budget).
	zoo := make([]*model.Model, 4)
	for i := range zoo {
		zoo[i] = model.Generate(model.ZooEntry{
			Name:        fmt.Sprintf("gwreg-%d", i),
			ExecTime:    sim.Time(150+60*i) * sim.Microsecond,
			Executions:  5,
			Unique:      3,
			InputBytes:  16 << 10,
			OutputBytes: 4 << 10,
			WeightBytes: (24 + 16*i) << 20,
		})
	}

	mkCfg := func(int, gpu.Config) core.Config {
		cfg := core.DefaultConfig(sched.NewPaella(10000))
		// A tight per-replica weight budget so residency state (warm /
		// loading / cold) differs across replicas and the residency-aware
		// balancer's decisions are exercised, not vacuous.
		cfg.VRAM = &vram.Config{CapacityBytes: 96 << 20}
		return cfg
	}

	var c *cluster.Cluster
	var err error
	var run func(until sim.Time)
	var now func() sim.Time
	var schedule func(at sim.Time, fn func())
	var recs []*trace.Recorder
	var mts []*telemetry.Meter

	if onWorld {
		w := sim.NewWorld()
		defer w.Close()
		ctrlRec := trace.New()
		w.Ctrl().SetRecorder(ctrlRec)
		recs = append(recs, ctrlRec)
		c, err = cluster.NewWorldWithConfig(w, devs, mkCfg, mkBal(), func(i int, shard *sim.Env) {
			r := trace.New()
			shard.SetRecorder(r)
			recs = append(recs, r)
			mt := telemetry.NewMeter(fmt.Sprintf("replica%d", i), 0)
			mt.SLO(telemetry.SLOConfig{
				Name: "goodput@5ms", Deadline: 5 * sim.Millisecond, Target: 0.99,
				Short: sim.Millisecond, Long: 10 * sim.Millisecond,
			})
			shard.SetMeter(mt)
			mts = append(mts, mt)
		})
		if err != nil {
			t.Fatal(err)
		}
		run = func(until sim.Time) { w.RunUntil(until) }
		now = func() sim.Time { return w.Ctrl().Now() }
		schedule = func(at sim.Time, fn func()) { w.Ctrl().At(at, fn) }
	} else {
		env := sim.NewEnv()
		rec := trace.New()
		env.SetRecorder(rec)
		recs = append(recs, rec)
		mt := telemetry.NewMeter("cluster", 0)
		mt.SLO(telemetry.SLOConfig{
			Name: "goodput@5ms", Deadline: 5 * sim.Millisecond, Target: 0.99,
			Short: sim.Millisecond, Long: 10 * sim.Millisecond,
		})
		env.SetMeter(mt)
		mts = append(mts, mt)
		c, err = cluster.NewWithConfig(env, devs, mkCfg, mkBal())
		if err != nil {
			t.Fatal(err)
		}
		run = func(until sim.Time) { env.RunUntil(until) }
		now = func() sim.Time { return env.Now() }
		schedule = func(at sim.Time, fn func()) { env.At(at, fn) }
	}

	for _, m := range zoo {
		if err := c.RegisterModel(m, compiler.DefaultConfig(), 1); err != nil {
			t.Fatal(err)
		}
	}
	conn := c.Connect()

	// Deterministic bursty arrivals with a skewed model mix: hot model 0
	// takes half the traffic, the tail keeps paging weights in and out.
	rng := rand.New(rand.NewSource(42))
	const n = 120
	at := sim.Time(0)
	for i := 0; i < n; i++ {
		at += sim.Time(rng.Intn(90)+10) * sim.Microsecond
		mi := 0
		if rng.Intn(2) == 1 {
			mi = rng.Intn(len(zoo))
		}
		id, name, when := uint64(i+1), zoo[mi].Name, at
		schedule(when, func() {
			conn.Submit(core.Request{ID: id, Model: name, Client: int(id) % 4, Submit: now()})
		})
	}
	run(at + 6*sim.Second)

	var blob bytes.Buffer
	blob.WriteString("== metrics ==\n")
	col := c.Collector()
	if col.Len() == 0 {
		t.Fatal("no requests completed; regression workload broken")
	}
	if err := col.WriteJSON(&blob); err != nil {
		t.Fatal(err)
	}
	blob.WriteString("== telemetry ==\n")
	if err := telemetry.WriteJSON(&blob, now(), telemetry.Export{Collector: col, Meters: mts}); err != nil {
		t.Fatal(err)
	}
	blob.WriteString("== trace ==\n")
	if err := trace.WriteChromeTraceAll(&blob, recs...); err != nil {
		t.Fatal(err)
	}
	return blob.Bytes()
}

// TestRoutingExtractionGolden locks the routing extraction: every legacy
// balancer, run with all gateway features disabled, must reproduce the
// pre-refactor snapshot byte-for-byte — metrics, telemetry, and trace.
// Regenerate (only with behavior changes that are themselves intended) via
//
//	go test ./internal/cluster -run TestRoutingExtractionGolden -update
func TestRoutingExtractionGolden(t *testing.T) {
	cases := []struct {
		name    string
		mk      func() gateway.Policy
		onWorld bool
	}{
		{"round-robin", gateway.NewRoundRobin, false},
		{"least-loaded", gateway.NewLeastLoaded, false},
		{"model-affinity", func() gateway.Policy { return gateway.NewModelAffinity(2) }, false},
		{"residency-aware", func() gateway.Policy { return gateway.NewResidencyAware(nil) }, false},
		{"residency-aware-world", func() gateway.Policy { return gateway.NewResidencyAware(nil) }, true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			got := preGatewayBlob(t, tc.mk, tc.onWorld)
			path := filepath.Join("testdata", "golden_pre_gateway_"+tc.name+".gz")
			if *updateGolden {
				var buf bytes.Buffer
				zw := gzip.NewWriter(&buf)
				if _, err := zw.Write(got); err != nil {
					t.Fatal(err)
				}
				if err := zw.Close(); err != nil {
					t.Fatal(err)
				}
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			f, err := os.Open(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update before refactoring): %v", err)
			}
			defer f.Close()
			zr, err := gzip.NewReader(f)
			if err != nil {
				t.Fatal(err)
			}
			want, err := io.ReadAll(zr)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("output diverged from pre-refactor snapshot %s:\n got %d bytes, want %d bytes\nfirst difference near byte %d",
					path, len(got), len(want), firstDiff(got, want))
			}
		})
	}
}

// firstDiff returns the index of the first differing byte.
func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
