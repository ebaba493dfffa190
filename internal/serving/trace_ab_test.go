package serving

import (
	"bytes"
	"encoding/json"
	"testing"

	"paella/internal/model"
	"paella/internal/trace"
	"paella/internal/vram"
)

// runMetricsJSON runs the named system over reqs and returns the collected
// records serialized to bytes — the comparison unit for A/B determinism.
func runMetricsJSON(t *testing.T, name string, opts Options) []byte {
	t.Helper()
	reqs := tinyTrace(25, 3, 400)
	col, err := RunTrace(MustNewSystem(name), reqs, opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := col.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTracingDoesNotPerturbSimulation is the tentpole's A/B contract: the
// same seeded workload produces byte-identical metrics with tracing off
// (nil recorder) and on — attaching a recorder must never change the
// simulation, only observe it.
func TestTracingDoesNotPerturbSimulation(t *testing.T) {
	for _, name := range []string{"Paella", "CUDA-MS", "Triton"} {
		name := name
		t.Run(name, func(t *testing.T) {
			off := runMetricsJSON(t, name, tinyOpts())
			optsOn := tinyOpts()
			optsOn.Trace = trace.New()
			on := runMetricsJSON(t, name, optsOn)
			if !bytes.Equal(off, on) {
				t.Fatalf("tracing changed the simulation:\noff: %.300s\non:  %.300s", off, on)
			}
			if optsOn.Trace.Len() == 0 {
				t.Fatal("enabled recorder collected nothing")
			}
		})
	}
}

// TestTracingDoesNotPerturbVRAMPath repeats the A/B check on the
// constrained-memory configuration, which exercises the vram and PCIe
// emission sites (loads, evictions, DMA contention).
func TestTracingDoesNotPerturbVRAMPath(t *testing.T) {
	mkTiny := func(name string) *model.Model {
		m := model.TinyNet()
		m.Name = name
		m.WeightBytes = 8 << 20
		return m
	}
	mkOpts := func() Options {
		opts := tinyOpts()
		opts.Models = []*model.Model{mkTiny("tinynet"), mkTiny("tinynet2")}
		// Room for one tiny model at a time: every alternation between the
		// two forces an eviction and a cold start.
		opts.VRAM = &vram.Config{CapacityBytes: 10 << 20}
		return opts
	}
	off := runVRAMMetrics(t, mkOpts())
	optsOn := mkOpts()
	optsOn.Trace = trace.New()
	on := runVRAMMetrics(t, optsOn)
	if !bytes.Equal(off, on) {
		t.Fatalf("tracing changed the vram path:\noff: %.300s\non:  %.300s", off, on)
	}
	if optsOn.Trace.Len() == 0 {
		t.Fatal("enabled recorder collected nothing")
	}
}

func runVRAMMetrics(t *testing.T, opts Options) []byte {
	t.Helper()
	reqs := tinyTrace(25, 3, 400)
	for i := range reqs {
		if i%2 == 1 {
			reqs[i].Model = "tinynet2"
		}
	}
	col, err := RunTrace(MustNewSystem("Paella"), reqs, opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := col.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTraceExportDeterministic: two identically-seeded traced runs export
// byte-identical Chrome traces — the property the paella-sim golden-trace
// pin depends on.
func TestTraceExportDeterministic(t *testing.T) {
	export := func() []byte {
		opts := tinyOpts()
		opts.Trace = trace.New()
		reqs := tinyTrace(20, 2, 300)
		if _, err := RunTrace(MustNewSystem("Paella"), reqs, opts); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := opts.Trace.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := export(), export()
	if !bytes.Equal(a, b) {
		t.Fatal("identical runs exported different traces")
	}
}

// TestTraceContent checks the recorder captured each promised shape from a
// real run and that the export is loadable JSON: per-SM kernel slices,
// per-job lifecycle rows, scheduling instants, counter tracks.
func TestTraceContent(t *testing.T) {
	opts := tinyOpts()
	opts.Trace = trace.New()
	reqs := tinyTrace(20, 2, 300)
	col, err := RunTrace(MustNewSystem("Paella"), reqs, opts)
	if err != nil {
		t.Fatal(err)
	}
	rec := opts.Trace

	var kernelSpans, jobRows int
	for _, sv := range rec.Spans() {
		switch sv.Cat {
		case "kernel":
			kernelSpans++
			if sv.Track == "" || sv.End < sv.Start {
				t.Fatalf("bad kernel span %+v", sv)
			}
		case "job":
			jobRows++
			if sv.ID == 0 {
				t.Fatalf("job phase without request id: %+v", sv)
			}
		}
	}
	if kernelSpans == 0 {
		t.Fatal("no per-SM kernel spans")
	}
	// Every completed job emits at least an exec phase.
	if jobRows < col.Len() {
		t.Fatalf("job phases = %d for %d jobs", jobRows, col.Len())
	}
	for _, counter := range []string{"ready jobs", "inflight kernels", "live jobs"} {
		if rec.Series("dispatcher", counter, "value") == nil {
			t.Fatalf("missing counter series dispatcher/%s/value", counter)
		}
	}
	ready := rec.Series("dispatcher", "ready jobs", "value")
	if ready == nil || ready.Max() < 1 {
		t.Fatalf("ready-jobs series empty or flat: %+v", ready)
	}

	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("Chrome export is not valid JSON: %v", err)
	}
	// Async spans export as b+e pairs and metadata rides along, so the
	// export can only be at least as large as the buffer.
	if len(out.TraceEvents) < rec.Len() {
		t.Fatalf("export has %d events for %d records", len(out.TraceEvents), rec.Len())
	}
}
