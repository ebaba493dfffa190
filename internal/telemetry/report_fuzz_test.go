package telemetry

import (
	"bytes"
	"testing"

	"paella/internal/metrics"
	"paella/internal/sim"
)

// FuzzReportInput sends arbitrary bytes down paella-trace report's path:
// metrics.ReadJSON, then WriteAnatomyTable, WriteBlameTable and
// AnatomyStatsLine. Every input must end in a decode error or in clean
// output — the renderers write to a buffer, so they must not fail — and
// never in a panic.
func FuzzReportInput(f *testing.F) {
	c := metrics.NewCollector()
	c.Add(metrics.JobRecord{ID: 1, Model: "resnet18", Submit: 0, Admit: 5 * sim.Microsecond,
		FirstDispatch: 9 * sim.Microsecond, ExecDone: 800 * sim.Microsecond, Delivered: sim.Millisecond,
		ColdStart: true, LoadNs: 300 * sim.Microsecond, HoLNs: 40 * sim.Microsecond})
	c.Add(metrics.JobRecord{ID: 2, Tenant: "b", Submit: 10, Admit: 20, FirstDispatch: 30,
		FirstToken: 400, ExecDone: 900, Delivered: 1000, PromptTokens: 12, OutputTokens: 6,
		PrefillNs: 200, StallNs: 50, Preemptions: 1, KVTransferNs: 30, BatchSize: 4, BatchWaitNs: 70})
	c.Add(metrics.JobRecord{ID: 3, Model: "m", Submit: 100, Delivered: 150, Failed: true, FailureReason: "crash"})
	var dump bytes.Buffer
	if err := c.WriteJSON(&dump); err != nil {
		f.Fatal(err)
	}
	f.Add(dump.Bytes())
	f.Add([]byte(`[]`))
	f.Add([]byte(`null`))
	f.Add([]byte(`[{"id":1,"submit_ns":500,"delivered_ns":100}]`))                                  // delivered before submit
	f.Add([]byte(`[{"id":1,"submit_ns":0,"delivered_ns":10,"hol_ns":99,"load_ns":-5}]`))            // phases past the JCT
	f.Add([]byte(`[{"id":1,"submit_ns":-9223372036854775808,"delivered_ns":9223372036854775807}]`)) // overflowing JCT
	f.Add([]byte(`[{"id":"x"}]`))
	f.Add([]byte(`{`))
	f.Fuzz(func(t *testing.T, data []byte) {
		col, err := metrics.ReadJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteAnatomyTable(&out, []SystemAnatomy{{System: "fuzz", Collector: col}}); err != nil {
			t.Fatalf("anatomy table: %v", err)
		}
		if err := WriteBlameTable(&out, col, 3); err != nil {
			t.Fatalf("blame table: %v", err)
		}
		out.WriteString(AnatomyStatsLine(col))
	})
}
