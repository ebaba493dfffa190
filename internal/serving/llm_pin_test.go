package serving

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"paella/internal/metrics"
	"paella/internal/telemetry"
	"paella/internal/trace"
)

// llmRecordDigests pins the SHA-256 of each generative system's records
// (WriteJSON) on llmTrace(200). Observing a run must not change them, so
// one digest covers the run with and without a recorder and meter.
var llmRecordDigests = map[string]string{
	"Paella-LLM":        "3102b39bdf3c701807d757eaa0f83ce5281f37f0f38e16d96618dfe36a8ba07e",
	"Paella-LLM-static": "41cf09c981ea725e0ecbe4a2c22b28a29b537439c249f28485f0e72b09db43a0",
	"Paella-LLM-PD":     "d848e912545d9e04122b1fe193ec8071b390205a42c662e772b2eda329c188a4",
}

// Paella-LLM-PD's observed exports on the same run: the Chrome trace and
// the telemetry JSON (meter plus anatomy).
const (
	llmPDTraceDigest     = "71a9cbde120848199877df9ce57a220824d70a33183ad63f4b61cb97576b7281"
	llmPDTelemetryDigest = "dadcffe13c30393d7755e356042f8b8da319157cfea380a5f1256e6b687e5753"
)

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// llmRun serves llmTrace(200) through the named generative system and
// returns the records' bytes, plus the trace and telemetry exports when
// observed.
func llmRun(t *testing.T, name string, observed bool) (recs, chrome, tel []byte) {
	t.Helper()
	opts := llmTestOptions()
	if observed {
		opts.Trace = trace.New()
		opts.Telemetry = telemetry.NewMeter("llm", 0)
	}
	col, err := RunTrace(MustNewSystem(name), llmTrace(200), opts)
	if err != nil {
		t.Fatal(err)
	}
	var rb bytes.Buffer
	if err := col.WriteJSON(&rb); err != nil {
		t.Fatal(err)
	}
	if !observed {
		return rb.Bytes(), nil, nil
	}
	chrome, tel = exports(t, opts.Trace, opts.Telemetry, col)
	return rb.Bytes(), chrome, tel
}

// exports returns an observed run's Chrome trace and its telemetry JSON
// (meter plus anatomy).
func exports(t *testing.T, rec *trace.Recorder, mt *telemetry.Meter, col *metrics.Collector) (chrome, tel []byte) {
	t.Helper()
	var cb, tb bytes.Buffer
	if err := rec.WriteChromeTrace(&cb); err != nil {
		t.Fatal(err)
	}
	if err := telemetry.WriteJSON(&tb, 0, telemetry.Export{Meters: []*telemetry.Meter{mt}, Collector: col}); err != nil {
		t.Fatal(err)
	}
	return cb.Bytes(), tb.Bytes()
}

// TestLLMSystemsPinned pins every generative system's records, observed
// and not, and Paella-LLM-PD's exports.
func TestLLMSystemsPinned(t *testing.T) {
	for name, want := range llmRecordDigests {
		t.Run(name, func(t *testing.T) {
			for _, observed := range []bool{false, true} {
				recs, chrome, tel := llmRun(t, name, observed)
				if got := sha(recs); got != want {
					t.Errorf("observed=%v: records digest %s, want %s", observed, got, want)
				}
				if observed && name == "Paella-LLM-PD" {
					if got := sha(chrome); got != llmPDTraceDigest {
						t.Errorf("Chrome trace digest %s, want %s", got, llmPDTraceDigest)
					}
					if got := sha(tel); got != llmPDTelemetryDigest {
						t.Errorf("telemetry digest %s, want %s", got, llmPDTelemetryDigest)
					}
				}
			}
		})
	}
}

// TestPaellaLLMIsOneEngineDeployment: a traced, metered Paella-LLM run
// exports the same bytes as the builder's one-engine colocated deployment
// fed the same trace on an Env observed the same way — one deployment,
// one export.
func TestPaellaLLMIsOneEngineDeployment(t *testing.T) {
	_, wantChrome, wantTel := llmRun(t, "Paella-LLM", true)

	rec, mt := trace.New(), telemetry.NewMeter("llm", 0)
	opts := llmTestOptions()
	opts.Trace, opts.Telemetry = rec, mt
	opts.LLM.Prefills = 1
	d, err := NewDeployment(opts)
	if err != nil {
		t.Fatal(err)
	}
	d.Arrive(llmTrace(200))
	d.Env().Run()
	chrome, tel := exports(t, rec, mt, d.Collector())
	if !bytes.Equal(chrome, wantChrome) {
		t.Error("Chrome trace differs from Paella-LLM's")
	}
	if !bytes.Equal(tel, wantTel) {
		t.Error("telemetry export differs from Paella-LLM's")
	}
}
