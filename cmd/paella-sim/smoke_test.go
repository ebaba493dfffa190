package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"paella/internal/metrics"
	"paella/internal/telemetry"
)

// TestSmokeInvariants checks the properties the smoke runs exist to show
// on their pinned stdout (TestStdoutGolden holds each run to its pin):
// no job lost, batching and continuous decode paying off at saturation,
// a KV handoff per disaggregated request, elastic scaling that churns and
// conserves every request, and admission that sheds without losing any.
func TestSmokeInvariants(t *testing.T) {
	out := func(name string) string {
		t.Helper()
		data, err := os.ReadFile(filepath.Join("testdata", "stdout", name+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	has := func(name, pattern string) {
		t.Helper()
		if !regexp.MustCompile(pattern).MatchString(out(name)) {
			t.Errorf("%s: no line matches %q", name, pattern)
		}
	}
	// num returns the first number following prefix in the named output.
	num := func(name, prefix string) float64 {
		t.Helper()
		m := regexp.MustCompile(regexp.QuoteMeta(prefix) + `\s*([0-9.]+)`).FindStringSubmatch(out(name))
		if m == nil {
			t.Fatalf("%s: no %q", name, prefix)
		}
		v, err := strconv.ParseFloat(m[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}

	has("chaos-smoke", `(?m)lost=0$`)
	for _, name := range []string{"batching-plain", "batching-batch"} {
		has(name, `(?m)^completed  : 600 \(100\.0%\)$`)
	}
	if plain, batch := num("batching-plain", "throughput :"), num("batching-batch", "throughput :"); batch < plain {
		t.Errorf("batched throughput %.1f below unbatched %.1f", batch, plain)
	}
	for _, name := range []string{"llm-colocated", "llm-static", "llm-pd"} {
		has(name, `failed=0 lost=0`)
	}
	has("llm-pd", `transfers=200 `)
	if cont, static := num("llm-colocated", "goodput(<200ms)="), num("llm-static", "goodput(<200ms)="); cont < static {
		t.Errorf("continuous TTFT goodput %.1f below static %.1f", cont, static)
	}
	has("llm-pd-gateway", `lost=0`)
	has("autoscale-smoke", `(?m)\(conserved\)$`)
	if ups, parks := num("autoscale-smoke", "ups="), num("autoscale-smoke", "parks="); ups == 0 || parks == 0 {
		t.Errorf("flash crowd caused no scale churn (ups=%v parks=%v)", ups, parks)
	}
	shed, done := num("gateway-admission", "shed="), num("gateway-admission", "completed  :")
	if shed == 0 || done+shed != 300 {
		t.Errorf("gateway admission: %v completed + %v shed, want shed > 0 and a sum of 300", done, shed)
	}

	// The record dump renders as the anatomy report `paella-trace report
	// -topk 3` prints: the phase table, then the blame table.
	col, err := metrics.ReadJSON(strings.NewReader(out("tiny-json")))
	if err != nil {
		t.Fatal(err)
	}
	var report bytes.Buffer
	if err := telemetry.WriteAnatomyTable(&report, []telemetry.SystemAnatomy{{System: "records", Collector: col}}); err != nil {
		t.Fatal(err)
	}
	if err := telemetry.WriteBlameTable(&report, col, 3); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(report.String(), "dominant") {
		t.Errorf("anatomy report names no dominant phase:\n%s", report.String())
	}
}
