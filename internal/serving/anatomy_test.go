package serving

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"paella/internal/fault"
	"paella/internal/metrics"
	"paella/internal/model"
	"paella/internal/sim"
	"paella/internal/telemetry"
	"paella/internal/trace"
	"paella/internal/vram"
	"paella/internal/workload"
)

// vramOpts is a two-model deployment with room for one model's weights at
// a time — the constrained-memory cell of the matrix.
func vramOpts() Options {
	mk := func(name string) *model.Model {
		m := model.TinyNet()
		m.Name = name
		m.WeightBytes = 8 << 20
		return m
	}
	opts := tinyOpts()
	opts.Models = []*model.Model{mk("tinynet"), mk("tinynet2")}
	opts.VRAM = &vram.Config{CapacityBytes: 10 << 20}
	return opts
}

// checkAnatomy asserts the partition invariant over a whole collector:
// every record's phase anatomy sums exactly (integer nanoseconds) to its
// JCT — completed and failed records alike.
func checkAnatomy(t *testing.T, label string, col *metrics.Collector) {
	t.Helper()
	recs := col.Records()
	if len(recs) == 0 {
		t.Fatalf("%s: no records to check", label)
	}
	for i := range recs {
		r := &recs[i]
		a := telemetry.Of(r)
		if got, want := a.Sum(), r.JCT(); got != want {
			t.Errorf("%s: record %d anatomy sums to %v, JCT is %v (failed=%v reason=%q)\nrecord: %+v\nanatomy: %v",
				label, r.ID, got, want, r.Failed, r.FailureReason, r, a)
		}
		for p := telemetry.Phase(0); p < telemetry.NumPhases; p++ {
			if a[p] < 0 {
				t.Errorf("%s: record %d phase %s negative: %v", label, r.ID, p, a[p])
			}
		}
	}
}

// TestAnatomySumsToJCTMatrix is the tentpole's property test: across
// systems, seeds, batching, constrained memory, faults, and the generative
// engines, every record's phase decomposition partitions its JCT exactly.
func TestAnatomySumsToJCTMatrix(t *testing.T) {
	seeds := []int64{1, 2, 3}

	systems := []string{"Paella", "Paella-SS", "Triton", "Clockwork", "CUDA-MS"}
	for _, name := range systems {
		for _, seed := range seeds {
			name, seed := name, seed
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				reqs := workload.MustGenerate(workload.Spec{
					Mix: workload.Uniform("tinynet"), Sigma: 1.5,
					RatePerSec: 600, Jobs: 40, Clients: 4, Seed: seed,
				})
				col := MustRunTrace(MustNewSystem(name), reqs, tinyOpts())
				checkAnatomy(t, name, col)
			})
		}
	}

	t.Run("Paella-batched", func(t *testing.T) {
		opts := tinyOpts()
		opts.MaxBatch = 4
		opts.BatchWindow = 50 * sim.Microsecond
		col := MustRunTrace(MustNewSystem("Paella"), tinyTrace(40, 4, 900), opts)
		checkAnatomy(t, "Paella-batched", col)
	})

	t.Run("Paella-vram", func(t *testing.T) {
		// Constrained memory with room for one model at a time: every
		// alternation forces an eviction and a cold start, so LoadNs (and
		// the cold-start phase) enters the partition.
		opts := vramOpts()
		reqs := workload.MustGenerate(workload.Spec{
			Mix: workload.Uniform("tinynet", "tinynet2"), Sigma: 1,
			RatePerSec: 300, Jobs: 40, Clients: 2, Seed: 11,
		})
		col := MustRunTrace(MustNewSystem("Paella"), reqs, opts)
		checkAnatomy(t, "Paella-vram", col)
		if col.ColdStarts() == 0 {
			t.Error("vram cell exercised no cold starts")
		}
	})

	t.Run("Paella-chaos", func(t *testing.T) {
		// Fault injection: sheds, retries, and timeout failures must stamp
		// every terminal record completely.
		opts := tinyOpts()
		opts.Faults = fault.Synthesize(7, 0.8, 5*sim.Millisecond, opts.DevCfg.NumSMs)
		col := MustRunTrace(MustNewSystem("Paella"), tinyTrace(60, 4, 1200), opts)
		checkAnatomy(t, "Paella-chaos", col)
	})

	for _, name := range []string{"Paella-LLM", "Paella-LLM-static", "Paella-LLM-PD"} {
		name := name
		t.Run(name, func(t *testing.T) {
			col := MustRunTrace(MustNewSystem(name), llmTrace(30), llmTestOptions())
			checkAnatomy(t, name, col)
		})
	}

	t.Run("Paella-LLM-preempting", func(t *testing.T) {
		// A KV budget small enough to force paging preemptions, so StallNs
		// and recompute PrefillNs enter the partition.
		opts := llmTestOptions()
		opts.VRAM.CapacityBytes = 48 << 10
		opts.MaxBatch = 8
		col := MustRunTrace(MustNewSystem("Paella-LLM"), llmTrace(40), opts)
		checkAnatomy(t, "Paella-LLM-preempting", col)
		preemptions := 0
		for _, r := range col.Records() {
			preemptions += r.Preemptions
		}
		if preemptions == 0 {
			t.Error("preemption cell exercised no preemptions")
		}
	})
}

// TestLLMAnatomyShowsBatchHoldGap: the acceptance-criterion shape — under
// launch-time ("static") decode batching, the group-drain wait shows up as
// batch-hold; continuous batching eliminates nearly all of it.
func TestLLMAnatomyShowsBatchHoldGap(t *testing.T) {
	reqs := llmTrace(40)
	static := MustRunTrace(MustNewSystem("Paella-LLM-static"), reqs, llmTestOptions())
	cont := MustRunTrace(MustNewSystem("Paella-LLM"), reqs, llmTestOptions())
	sHold := telemetry.MeanAnatomy(static)[telemetry.PhaseBatchHold]
	cHold := telemetry.MeanAnatomy(cont)[telemetry.PhaseBatchHold]
	if sHold <= cHold {
		t.Errorf("static batch-hold %v not above continuous %v — the anatomy should expose the TTFT win", sHold, cHold)
	}
}

// runTelemetryAB runs the named system and returns (collector JSON, trace
// bytes): the pair that must be bit-identical with metering on and off.
func runTelemetryAB(t *testing.T, name string, opts Options) ([]byte, []byte) {
	t.Helper()
	opts.Trace = trace.New()
	var reqs []workload.Request
	if opts.LLM != nil {
		reqs = llmTrace(25)
	} else {
		reqs = tinyTrace(25, 3, 400)
	}
	col, err := RunTrace(MustNewSystem(name), reqs, opts)
	if err != nil {
		t.Fatal(err)
	}
	var mbuf bytes.Buffer
	if err := col.WriteJSON(&mbuf); err != nil {
		t.Fatal(err)
	}
	var tbuf bytes.Buffer
	if err := opts.Trace.WriteChromeTrace(&tbuf); err != nil {
		t.Fatal(err)
	}
	return mbuf.Bytes(), tbuf.Bytes()
}

// TestTelemetryDoesNotPerturbSimulation is the zero-overhead guard:
// attaching a meter must not change a single byte of the metrics or the
// trace — telemetry observes the simulation, never steers it.
func TestTelemetryDoesNotPerturbSimulation(t *testing.T) {
	cases := []struct {
		name string
		opts func() Options
	}{
		{"Paella", tinyOpts},
		{"Triton", tinyOpts},
		{"Paella-LLM", llmTestOptions},
		{"Paella-LLM-PD", llmTestOptions},
		{"Paella-vram", vramOpts},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			sysName := tc.name
			if sysName == "Paella-vram" {
				sysName = "Paella"
			}
			offMetrics, offTrace := runTelemetryAB(t, sysName, tc.opts())
			optsOn := tc.opts()
			optsOn.Telemetry = telemetry.NewMeter("ab", 0)
			optsOn.Telemetry.SLO(telemetry.SLOConfig{Name: "goodput@50ms", Deadline: 50 * sim.Millisecond, Target: 0.99})
			onMetrics, onTrace := runTelemetryAB(t, sysName, optsOn)
			if !bytes.Equal(offMetrics, onMetrics) {
				t.Fatalf("metering changed the metrics:\noff: %.300s\non:  %.300s", offMetrics, onMetrics)
			}
			if !bytes.Equal(offTrace, onTrace) {
				t.Fatal("metering changed the trace bytes")
			}
			// And the meter actually observed the run.
			var ex bytes.Buffer
			if err := telemetry.WriteJSON(&ex, 0, telemetry.Export{Meters: []*telemetry.Meter{optsOn.Telemetry}}); err != nil {
				t.Fatal(err)
			}
			var decoded struct {
				Meters []struct {
					Metrics []struct {
						Name    string
						Windows []json.RawMessage
					}
				}
			}
			if err := json.Unmarshal(ex.Bytes(), &decoded); err != nil {
				t.Fatal(err)
			}
			observed := false
			for _, m := range decoded.Meters[0].Metrics {
				observed = observed || m.Name == "jobs/completed" && len(m.Windows) > 0
			}
			if !observed {
				t.Fatal("enabled meter collected nothing")
			}
		})
	}
}
