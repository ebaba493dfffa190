package serving

import (
	"slices"
	"testing"

	"paella/internal/gpu"
	"paella/internal/metrics"
	"paella/internal/model"
	"paella/internal/sim"
	"paella/internal/workload"
)

// tinyOpts uses only TinyNet for fast end-to-end runs.
func tinyOpts() Options {
	opts := DefaultOptions()
	opts.DevCfg.LaunchOverhead = 2 * sim.Microsecond
	opts.Models = []*model.Model{model.TinyNet()}
	opts.ProfileRuns = 1
	return opts
}

func tinyTrace(jobs, clients int, rate float64) []workload.Request {
	return workload.MustGenerate(workload.Spec{
		Mix:        workload.Uniform("tinynet"),
		Sigma:      1.5,
		RatePerSec: rate,
		Jobs:       jobs,
		Clients:    clients,
		Seed:       42,
	})
}

func TestAllSystemsCompleteTrace(t *testing.T) {
	trace := tinyTrace(30, 4, 500)
	for _, name := range []string{"CUDA-SS", "CUDA-MS", "Triton", "Paella-SS", "Paella-MS-jbj", "Paella-MS-kbk",
		"Paella-SJF", "Paella-RR", "Paella", "MPS", "Clockwork", "Paella-FIFO"} {
		name := name
		t.Run(name, func(t *testing.T) {
			col, err := RunTrace(MustNewSystem(name), trace, tinyOpts())
			if err != nil {
				t.Fatal(err)
			}
			if col.Len() != len(trace) {
				t.Fatalf("%s delivered %d of %d", name, col.Len(), len(trace))
			}
			for _, r := range col.Records() {
				if r.JCT() <= 0 {
					t.Fatalf("%s: nonpositive JCT %v", name, r.JCT())
				}
				if r.Delivered < r.Submit || r.ExecDone > r.Delivered {
					t.Fatalf("%s: inconsistent record %+v", name, r)
				}
			}
		})
	}
}

func TestDeterministicRuns(t *testing.T) {
	trace := tinyTrace(20, 2, 300)
	for _, name := range []string{"Paella", "CUDA-MS", "Triton"} {
		a := MustRunTrace(MustNewSystem(name), trace, tinyOpts()).JCTs()
		b := MustRunTrace(MustNewSystem(name), trace, tinyOpts()).JCTs()
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: run not deterministic at job %d: %v vs %v", name, i, a[i], b[i])
			}
		}
	}
}

func TestMPSClientLimit(t *testing.T) {
	trace := tinyTrace(10, 8, 300) // 8 clients > MPS limit of 7
	if _, err := RunTrace(MustNewSystem("MPS"), trace, tinyOpts()); err == nil {
		t.Fatal("MPS accepted more than 7 client processes")
	}
}

func TestUnknownSystem(t *testing.T) {
	_, err := NewSystem("bogus")
	if err == nil || err.Error() != `serving: unknown system "bogus"` {
		t.Fatalf("NewSystem(bogus) = %v, want the unknown-system error", err)
	}
}

func TestTable3Complete(t *testing.T) {
	rows := Table3()
	if len(rows) != 11 {
		t.Fatalf("Table3 rows = %d, want 11", len(rows))
	}
	for _, row := range rows {
		if _, err := NewSystem(row.Name); err != nil {
			t.Errorf("Table3 row %q not constructible: %v", row.Name, err)
		}
	}
}

// TestSystemsTable pins the systems NewSystem builds and Table 3's rows,
// in order, and checks that each name builds a system of that name.
func TestSystemsTable(t *testing.T) {
	want := []SystemInfo{
		{"CUDA-SS", "Direct", "job", "FIFO"},
		{"CUDA-MS", "Direct", "job", "CUDA"},
		{"MPS", "Direct", "job", "MPS"},
		{"Clockwork", "Boost Asio", "job", "FIFO"},
		{"Triton", "gRPC", "job", "CUDA"},
		{"Paella-SS", "mem channels", "job", "FIFO"},
		{"Paella-MS-jbj", "mem channels", "job", "CUDA"},
		{"Paella-MS-kbk", "mem channels", "kernel", "CUDA"},
		{"Paella", "mem channels", "kernel", "SRPT+deficit"},
		{"Paella-SJF", "mem channels", "kernel", "SJF"},
		{"Paella-RR", "mem channels", "kernel", "RR"},
	}
	if got := Table3(); !slices.Equal(got, want) {
		t.Fatalf("Table3() = %v, want %v", got, want)
	}
	for _, name := range []string{"Paella-FIFO", "Paella-batch", "Triton-batch",
		"Paella-LLM", "Paella-LLM-static", "Paella-LLM-PD"} {
		want = append(want, SystemInfo{Name: name})
	}
	if got := Systems(); !slices.Equal(got, want) {
		t.Fatalf("Systems() = %v, want %v", got, want)
	}
	for _, row := range want {
		if sys, err := NewSystem(row.Name); err != nil || sys.Name() != row.Name {
			t.Errorf("NewSystem(%q) = %v, %v", row.Name, sys, err)
		}
	}
}

// TestTritonOverheadDominatedBySerialization: a single isolated request
// through Triton must carry frontend overhead in the paper's reported
// range (a significant fraction of execution time), while Paella's is µs.
func TestTritonVsPaellaOverhead(t *testing.T) {
	opts := DefaultOptions()
	opts.Models = []*model.Model{model.Generate(model.Table2()[1])} // mobilenetv2
	opts.ProfileRuns = 1
	trace := workload.MustGenerate(workload.Spec{
		Mix: workload.Uniform("mobilenetv2"), Sigma: 0.1, RatePerSec: 5, Jobs: 5, Clients: 1, Seed: 1,
	})
	triton := MustRunTrace(MustNewSystem("Triton"), trace, opts)
	paella := MustRunTrace(MustNewSystem("Paella"), trace, opts)
	tj := metrics.Mean(triton.JCTs())
	pj := metrics.Mean(paella.JCTs())
	if tj <= pj {
		t.Fatalf("Triton JCT (%v) not above Paella (%v)", tj, pj)
	}
	// Triton adds hundreds of µs of frontend overhead per request.
	var fw sim.Time
	for _, r := range triton.Records() {
		fw += r.FrameworkNs
	}
	fw /= sim.Time(triton.Len())
	if fw < 300*sim.Microsecond {
		t.Fatalf("Triton framework overhead %v, want ≥300µs", fw)
	}
}

// TestPaellaSustainsMoreLoadThanSingleStream: at a load that saturates a
// serialized stream, Paella keeps p99 low.
func TestPaellaBeatsSingleStreamUnderLoad(t *testing.T) {
	opts := DefaultOptions()
	opts.DevCfg = gpu.GTX1660Super()
	opts.Models = []*model.Model{model.Fig2Job()}
	opts.ProfileRuns = 1
	// fig2job ≈ 2.4ms serial; 8 concurrent-capable kernels. 600 jobs/s
	// saturates one stream (416/s capacity) but is easy when overlapped.
	trace := workload.MustGenerate(workload.Spec{
		Mix: workload.Uniform("fig2job"), Sigma: 1, RatePerSec: 600, Jobs: 120, Clients: 4, Seed: 9,
	})
	ss := MustRunTrace(MustNewSystem("CUDA-SS"), trace, opts)
	pa := MustRunTrace(MustNewSystem("Paella"), trace, opts)
	if ss.Len() != 120 || pa.Len() != 120 {
		t.Fatalf("incomplete runs: ss=%d paella=%d", ss.Len(), pa.Len())
	}
	if pa.P99() >= ss.P99() {
		t.Fatalf("Paella p99 (%v) not below CUDA-SS p99 (%v) under load", pa.P99(), ss.P99())
	}
}

func TestMaxSimTimeTruncates(t *testing.T) {
	opts := tinyOpts()
	opts.MaxSimTime = 2 * sim.Millisecond
	trace := tinyTrace(200, 2, 100) // trace extends well past 2ms
	col := MustRunTrace(MustNewSystem("Paella"), trace, opts)
	if col.Len() >= 200 {
		t.Fatalf("MaxSimTime did not truncate: %d records", col.Len())
	}
}

func TestClockworkExclusive(t *testing.T) {
	// Two different models submitted together: Clockwork runs them one at
	// a time, so the second's completion is pushed past the first's.
	opts := DefaultOptions()
	opts.Models = []*model.Model{model.TinyNet(), model.Fig2Job()}
	opts.ProfileRuns = 1
	trace := []workload.Request{
		{At: sim.Microsecond, Model: "fig2job", Client: 0},
		{At: 2 * sim.Microsecond, Model: "tinynet", Client: 1},
	}
	cw := MustRunTrace(MustNewSystem("Clockwork"), trace, opts)
	tiny := cw.FilterModel("tinynet").Records()[0]
	big := cw.FilterModel("fig2job").Records()[0]
	if tiny.FirstDispatch < big.ExecDone {
		t.Fatalf("Clockwork overlapped executions: tiny dispatched %v before fig2job done %v",
			tiny.FirstDispatch, big.ExecDone)
	}
}

// TestRingFullRetryKeepsRequest: 1,030 requests from one client at t=0
// overflow its 1,024-slot ring. Each refused request is retried after the
// backoff as the same request, so the records carry IDs 1..1,030 exactly
// once and every one keeps its arrival, t=0, as its submit time.
func TestRingFullRetryKeepsRequest(t *testing.T) {
	const n = 1030
	reqs := make([]workload.Request, n)
	for i := range reqs {
		reqs[i] = workload.Request{Model: "tinynet"}
	}
	col := MustRunTrace(MustNewSystem("Paella"), reqs, tinyOpts())
	if col.Len() != n {
		t.Fatalf("%d records for %d requests", col.Len(), n)
	}
	seen := make([]bool, n+1)
	for _, rec := range col.Records() {
		if rec.ID < 1 || rec.ID > n || seen[rec.ID] {
			t.Fatalf("record ID %d is outside 1..%d or repeated", rec.ID, n)
		}
		seen[rec.ID] = true
		if rec.Submit != 0 {
			t.Fatalf("request %d submitted at %v, arrived at 0", rec.ID, rec.Submit)
		}
	}
}
