package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// smoke runs a workload at about 1 % of its benchmark size, with fewer
// slices so the fixed calibration cost stays small.
func smoke(t *testing.T, w spec, traced bool) *report {
	t.Helper()
	w.slices = 2
	rep, err := measure(&w, 7, w.perSecond/10, traced)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.violations) > 0 {
		t.Fatalf("%s: checks failed: %v", w.name, rep.violations)
	}
	return rep
}

// printed renders the report and returns its text lines and result line.
func printed(t *testing.T, rep *report) ([]string, map[string]any) {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.print(&buf, 10); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("result line: %v", err)
	}
	return lines[:len(lines)-1], res
}

// checkPrinted asserts every metric of defs is printed as "name value unit"
// and that the result line carries exactly defs, each with its unit.
func checkPrinted(t *testing.T, rep *report, defs []metricDef) {
	t.Helper()
	lines, res := printed(t, rep)
	units := map[string]string{}
	for _, ln := range lines {
		if f := strings.Fields(ln); len(f) == 3 {
			units[f[0]] = f[2]
		}
	}
	for _, d := range defs {
		if u, ok := units[d.name]; !ok || u != d.unit {
			t.Errorf("%s: metric %s printed with unit %q, want %q", rep.w.name, d.name, u, d.unit)
		}
	}
	if res["correct"] != true || res["failed"] != float64(0) || res["attempted"] != float64(rep.requests) {
		t.Errorf("%s: result %v", rep.w.name, res)
	}
	ms, _ := res["metrics"].(map[string]any)
	if len(ms) != len(defs) {
		t.Errorf("%s: result has %d metrics, want %d", rep.w.name, len(ms), len(defs))
	}
	for _, d := range defs {
		m, _ := ms[d.name].(map[string]any)
		if m == nil || m["unit"] != d.unit {
			t.Errorf("%s: result metric %s = %v, want unit %q", rep.w.name, d.name, m, d.unit)
		}
	}
}

// TestWorkloadsSmoke runs every workload untraced, then traced (which
// repeats the untraced pass before the traced one): the checks pass, every
// metric is printed with its unit, and the simulated output's digest is
// identical across the in-process runs and with tracing on.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			a := smoke(t, w, false)
			checkPrinted(t, a, endToEnd)
			for _, d := range endToEnd {
				if a.values[d.name] <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", d.name, a.values[d.name])
				}
			}
			// smoke fails the test if the traced pass's digest differs from
			// its own untraced pass's.
			tr := smoke(t, w, true)
			if tr.digest != a.digest {
				t.Errorf("sim_digest differs between identical runs: %s vs %s", a.digest, tr.digest)
			}
			checkPrinted(t, tr, perLayer)
		})
	}
}

// TestBadArguments checks that invalid input exits non-zero without a
// result line.
func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "dnn-fleet", "-seconds", "0"},
		{"-workload", "dnn-fleet", "-trace", "2"},
		{"-bogus"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("run(%q) = %d with output %q, want non-zero and no output", args, code, out.String())
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json at the repository root
// declares exactly the workloads and metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var doc struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []entry, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d, program reports %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", what, i, got[i], want[i])
			}
		}
	}
	var names []metricDef
	for _, w := range workloads {
		names = append(names, metricDef{name: w.name})
	}
	same("workloads", doc.Workloads, names)
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}
