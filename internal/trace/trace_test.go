package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"paella/internal/sim"
)

func TestRecorderShapes(t *testing.T) {
	r := New()
	p := r.Process("gpu")
	sm := r.Thread(p, "sm0")
	c := r.Counter(p, "occupancy")

	r.SpanArgs(sm, "k1", "kernel", 100, 200)
	r.SpanArgs(sm, "k2", "kernel", 200, 300, Str("job", "resnet"), Int("blocks", 4))
	r.Async(p, 7, "exec", "job", 100, 300)
	r.Instant(sm, "evict", "vram", 150)
	r.Sample(c, "blocks", 100, 2)
	r.Sample(c, "blocks", 200, 3)

	spans, asyncs, instants, samples := r.Counts()
	if spans != 2 || asyncs != 1 || instants != 1 || samples != 2 {
		t.Fatalf("Counts() = %d/%d/%d/%d", spans, asyncs, instants, samples)
	}
	if r.Len() != 6 {
		t.Fatalf("Len() = %d", r.Len())
	}
	if r.MaxTime() != 300 {
		t.Fatalf("MaxTime() = %v", r.MaxTime())
	}
	views := r.Spans()
	if len(views) != 3 {
		t.Fatalf("Spans() = %d views", len(views))
	}
	if views[0].Process != "gpu" || views[0].Track != "sm0" || views[0].Name != "k1" {
		t.Fatalf("first span view = %+v", views[0])
	}
	if views[2].ID != 7 || views[2].Track != "" {
		t.Fatalf("async span view = %+v", views[2])
	}
	// One track's spans, without its instants or other tracks' spans.
	r.SpanArgs(r.Thread(p, "sm1"), "k3", "kernel", 300, 400)
	track := r.TrackSpans(sm)
	if len(track) != 2 || track[0].Name != "k1" || track[1].Name != "k2" {
		t.Fatalf("TrackSpans(sm0) = %+v", track)
	}
	if track[1].Arg("job") != "resnet" || track[1].Arg("blocks") != int64(4) || track[1].Arg("missing") != nil {
		t.Fatalf("span args = %+v", track[1].Args)
	}
}

func TestSampleDedup(t *testing.T) {
	r := New()
	c := r.Counter(r.Process("p"), "ctr")
	r.Sample(c, "s", 10, 1)
	r.Sample(c, "s", 20, 1) // unchanged — dropped
	r.Sample(c, "s", 30, 2)
	r.Sample(c, "s", 40, 2) // unchanged — dropped
	r.Sample(c, "s", 50, 1)
	if _, _, _, samples := r.Counts(); samples != 3 {
		t.Fatalf("samples = %d, want 3 (dedup)", samples)
	}
	// Distinct series of one counter dedup independently.
	r.Sample(c, "other", 60, 1)
	if _, _, _, samples := r.Counts(); samples != 4 {
		t.Fatal("series not independent")
	}
}

func TestNilRecorderIsNoop(t *testing.T) {
	var r *Recorder
	p := r.Process("p")
	tr := r.Thread(p, "t")
	c := r.Counter(p, "c")
	if p != 0 || tr != 0 || c != 0 {
		t.Fatalf("nil registration = %d/%d/%d, want zeros", p, tr, c)
	}
	r.SpanArgs(tr, "s", "c", 0, 1)
	r.SpanArgs(tr, "s", "c", 0, 1, Str("k", "v"))
	r.Async(p, 1, "s", "c", 0, 1)
	r.Instant(tr, "s", "c", 0)
	r.Sample(c, "s", 0, 1)
	if r.Len() != 0 || r.MaxTime() != 0 {
		t.Fatal("nil recorder recorded something")
	}
	if r.Spans() != nil || r.AllSeries() != nil {
		t.Fatal("nil recorder returned data")
	}
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
}

// TestZeroIDsAreNoop: emitting against invalid (zero) handles must not
// record — this is what makes "register only when enabled, emit
// unconditionally" safe for optional tracks.
func TestZeroIDsAreNoop(t *testing.T) {
	r := New()
	r.SpanArgs(0, "s", "c", 0, 1)
	r.Async(0, 1, "s", "c", 0, 1)
	r.Instant(0, "s", "c", 0)
	r.Sample(0, "s", 0, 1)
	if r.Len() != 0 {
		t.Fatalf("Len() = %d after zero-id emission", r.Len())
	}
}

func TestChromeTraceExport(t *testing.T) {
	r := New()
	p := r.Process("gpu")
	sm := r.Thread(p, "sm0")
	c := r.Counter(p, "occ")
	d := r.Process("disp")
	r.SpanArgs(sm, "k", "kernel", 1500, 2500) // 1.5µs..2.5µs
	r.Async(d, 42, "exec", "job", 0, 3000)
	r.Instant(sm, "evict", "vram", 2000)
	r.Sample(c, "blocks", 1500, 2)

	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		DisplayTimeUnit string           `json:"displayTimeUnit"`
		TraceEvents     []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}
	if out.DisplayTimeUnit != "ns" {
		t.Fatalf("displayTimeUnit = %q", out.DisplayTimeUnit)
	}
	byPh := map[string][]map[string]any{}
	for _, e := range out.TraceEvents {
		ph := e["ph"].(string)
		byPh[ph] = append(byPh[ph], e)
	}
	// Metadata: 2 process names + 2 sort indices + 1 thread name + 1 thread
	// sort index.
	if len(byPh["M"]) != 6 {
		t.Fatalf("metadata events = %d, want 6", len(byPh["M"]))
	}
	x := byPh["X"][0]
	if x["name"] != "k" || x["cat"] != "kernel" || x["ts"].(float64) != 1.5 || x["dur"].(float64) != 1.0 {
		t.Fatalf("X event = %v", x)
	}
	if len(byPh["b"]) != 1 || len(byPh["e"]) != 1 {
		t.Fatalf("async pair = %d/%d", len(byPh["b"]), len(byPh["e"]))
	}
	b := byPh["b"][0]
	if b["cat"] != "job" || b["id"] != "0x2a" {
		t.Fatalf("b event = %v", b)
	}
	i := byPh["i"][0]
	if i["s"] != "t" || i["name"] != "evict" {
		t.Fatalf("i event = %v", i)
	}
	cEv := byPh["C"][0]
	if cEv["args"].(map[string]any)["blocks"].(float64) != 2 {
		t.Fatalf("C event = %v", cEv)
	}
}

func TestChromeTraceDeterministic(t *testing.T) {
	build := func() *Recorder {
		r := New()
		p := r.Process("gpu")
		tr := r.Thread(p, "sm0")
		c := r.Counter(p, "occ")
		for i := 0; i < 50; i++ {
			at := sim.Time(i) * 100
			r.SpanArgs(tr, "k", "kernel", at, at+50, Int("i", int64(i)))
			r.Sample(c, "blocks", at, float64(i%4))
		}
		return r
	}
	var a, b bytes.Buffer
	if err := build().WriteChromeTrace(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("identical recorders exported different bytes")
	}
}

func TestCSVExport(t *testing.T) {
	r := New()
	c := r.Counter(r.Process("p,roc"), "ctr")
	r.Sample(c, "s", 100, 1.5)
	r.Sample(c, "s", 200, 2)
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV lines = %d:\n%s", len(lines), buf.String())
	}
	if lines[0] != "time_ns,process,counter,series,value" {
		t.Fatalf("header = %q", lines[0])
	}
	if lines[1] != `100,"p,roc",ctr,s,1.5` {
		t.Fatalf("row = %q", lines[1])
	}
	if lines[2] != `200,"p,roc",ctr,s,2` {
		t.Fatalf("row = %q (integral floats print as ints)", lines[2])
	}
}

func TestTimeSeriesQueries(t *testing.T) {
	r := New()
	p := r.Process("disp")
	c := r.Counter(p, "ready")
	r.Sample(c, "value", 0, 0)
	r.Sample(c, "value", 100, 4)
	r.Sample(c, "value", 300, 1)

	ts := r.Series("disp", "ready", "value")
	if ts == nil {
		t.Fatal("Series() = nil")
	}
	if ts.Key() != "disp/ready/value" {
		t.Fatalf("Key() = %q", ts.Key())
	}
	if got := ts.ValueAt(50); got != 0 {
		t.Fatalf("ValueAt(50) = %v", got)
	}
	if got := ts.ValueAt(100); got != 4 {
		t.Fatalf("ValueAt(100) = %v", got)
	}
	if got := ts.ValueAt(1000); got != 1 {
		t.Fatalf("ValueAt(1000) = %v", got)
	}
	if ts.Min() != 0 || ts.Max() != 4 {
		t.Fatalf("Min/Max = %v/%v", ts.Min(), ts.Max())
	}
	// Step integral over [0,400]: 0·100 + 4·200 + 1·100 = 900; span 400.
	if got := ts.TimeWeightedMean(400); got != 2.25 {
		t.Fatalf("TimeWeightedMean(400) = %v", got)
	}
	if r.Series("disp", "ready", "nope") != nil {
		t.Fatal("unknown series not nil")
	}
	all := r.AllSeries()
	if len(all) != 1 || all[0].Key() != "disp/ready/value" || len(all[0].Points) != 3 {
		t.Fatalf("AllSeries() = %+v", all)
	}
}
