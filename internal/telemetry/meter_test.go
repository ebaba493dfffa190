package telemetry

import (
	"bytes"
	"strings"
	"testing"

	"paella/internal/metrics"
	"paella/internal/sim"
)

func TestNilMeterIsNoOp(t *testing.T) {
	var m *Meter
	id := m.Counter("x")
	if id != 0 {
		t.Fatalf("nil meter returned live ID %d", id)
	}
	m.Add(id, 0, 1)
	m.Set(id, 0, 1)
	m.Observe(id, 0, 1)
	m.RecordJob(0, &metrics.JobRecord{})
	m.SLO(SLOConfig{Name: "x", Deadline: 1, Target: 0.99})
	m.Flush(0)
	if m.Alerts() != nil || m.Series("x") != nil || m.Name() != "" {
		t.Error("nil meter leaked state")
	}
}

func TestFromEnv(t *testing.T) {
	env := sim.NewEnv()
	if FromEnv(env) != nil {
		t.Fatal("fresh env should have no meter")
	}
	m := NewMeter("dev0", 0)
	env.SetMeter(m)
	if FromEnv(env) != m {
		t.Fatal("FromEnv did not return the attached meter")
	}
	if m.window != DefaultWindow {
		t.Errorf("window = %v, want default %v", m.window, DefaultWindow)
	}
}

func TestCounterWindows(t *testing.T) {
	m := NewMeter("m", 100)
	id := m.Counter("events")
	m.Add(id, 10, 1)
	m.Add(id, 20, 2)
	m.Add(id, 150, 5) // crosses into window 1
	m.Add(id, 450, 1) // skips windows 2-3 entirely
	m.Flush(1000)
	rows := m.Series("events")
	want := []Row{
		{Window: 0, Count: 3, Sum: 3},
		{Window: 1, Count: 5, Sum: 5},
		{Window: 4, Count: 1, Sum: 1},
	}
	if len(rows) != len(want) {
		t.Fatalf("rows = %v, want %v", rows, want)
	}
	for i := range want {
		if rows[i] != want[i] {
			t.Errorf("row %d = %+v, want %+v", i, rows[i], want[i])
		}
	}
}

func TestGaugeCarriesAcrossWindows(t *testing.T) {
	m := NewMeter("m", 100)
	id := m.Gauge("depth")
	m.Set(id, 10, 3)
	m.Set(id, 50, 7)
	m.Set(id, 250, 2) // window 2; window 1 was silent
	m.Flush(1000)
	rows := m.Series("depth")
	if len(rows) != 2 {
		t.Fatalf("rows = %v, want 2", rows)
	}
	// Window 0: samples 3 then 7 — last value 7, min 3, max 7.
	if rows[0].Sum != 7 || rows[0].Min != 3 || rows[0].Max != 7 || rows[0].Count != 2 {
		t.Errorf("window 0 = %+v", rows[0])
	}
	// Window 2 opens at the carried level 7, then samples 2.
	if rows[1].Window != 2 || rows[1].Min != 2 || rows[1].Max != 7 || rows[1].Sum != 2 {
		t.Errorf("window 2 = %+v, want carried max 7, last 2", rows[1])
	}
}

func TestHistogramBuckets(t *testing.T) {
	m := NewMeter("m", 100)
	id := m.Histogram("lat")
	// 0 → bucket 0; 1 → bucket 1; 1000 → bucket 10 ([512,1024)).
	m.Observe(id, 0, 0)
	m.Observe(id, 0, 1)
	m.Observe(id, 0, 1000)
	in := &m.instruments[id-1]
	for b, n := range in.buckets {
		want := int64(0)
		if b == 0 || b == 1 || b == 10 {
			want = 1
		}
		if n != want {
			t.Errorf("bucket %d holds %d, want %d", b, n, want)
		}
	}
	if in.total != 3 || in.sum != 1001 {
		t.Errorf("total %d, sum %v; want 3 and 1001", in.total, in.sum)
	}
}

func TestRecordJobFeedsInstruments(t *testing.T) {
	m := NewMeter("m", 100)
	ok := metrics.JobRecord{Submit: 0, FirstToken: 40, OutputTokens: 4, ExecDone: 100, Delivered: 110}
	bad := metrics.JobRecord{Submit: 100, Delivered: 150, Failed: true}
	m.RecordJob(ok.Delivered, &ok) // deliveries arrive in time order
	m.RecordJob(bad.Delivered, &bad)
	m.Flush(1000)
	if rows := m.Series("jobs/completed"); len(rows) != 1 || rows[0].Count != 1 {
		t.Errorf("jobs/completed = %v", rows)
	}
	if rows := m.Series("jobs/failed"); len(rows) != 1 || rows[0].Count != 1 {
		t.Errorf("jobs/failed = %v", rows)
	}
	if rows := m.Series("jobs/jct_ns"); len(rows) != 1 || rows[0].Count != 2 {
		t.Errorf("jobs/jct_ns = %v (both outcomes feed JCT)", rows)
	}
	if rows := m.Series("jobs/ttft_ns"); len(rows) != 1 || rows[0].Count != 1 {
		t.Errorf("jobs/ttft_ns = %v (only the token-producing record)", rows)
	}
}

func TestExportDeterminism(t *testing.T) {
	build := func() *Meter {
		m := NewMeter("dev0", 100)
		c := m.Counter("events")
		g := m.Gauge("depth")
		h := m.Histogram("lat")
		m.SLO(SLOConfig{Name: "goodput@50", Deadline: 50, Target: 0.5, Short: 100, Long: 1000})
		for i := 0; i < 50; i++ {
			at := sim.Time(i * 37)
			m.Add(c, at, 1)
			m.Set(g, at, float64(i%5))
			m.Observe(h, at, float64(i*100))
			r := metrics.JobRecord{ID: uint64(i), Submit: at, Delivered: at + sim.Time(40+i*2)}
			m.RecordJob(r.Delivered, &r)
		}
		return m
	}
	var b1, b2 bytes.Buffer
	if err := WriteJSON(&b1, 10_000, Export{Meters: []*Meter{build()}}); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&b2, 10_000, Export{Meters: []*Meter{build()}}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Error("two identical runs exported different bytes")
	}
	out := b1.String()
	for _, want := range []string{Schema, `"events"`, `"depth"`, `"lat"`, `"goodput@50"`, `"log2_buckets"`} {
		if !strings.Contains(out, want) {
			t.Errorf("export missing %s", want)
		}
	}

	var csv1, csv2 bytes.Buffer
	if err := WriteCSV(&csv1, 10_000, build()); err != nil {
		t.Fatal(err)
	}
	if err := WriteCSV(&csv2, 10_000, build()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(csv1.Bytes(), csv2.Bytes()) {
		t.Error("CSV export nondeterministic")
	}
	if !strings.HasPrefix(csv1.String(), "meter,metric,kind,window_start_ns") {
		t.Errorf("CSV header wrong: %q", strings.SplitN(csv1.String(), "\n", 2)[0])
	}
}

func TestExportAnatomySection(t *testing.T) {
	c := metrics.NewCollector()
	c.Add(metrics.JobRecord{Submit: 0, Admit: 10, FirstDispatch: 20, ExecDone: 500, Delivered: 520})
	var b bytes.Buffer
	if err := WriteJSON(&b, 1000, Export{Collector: c}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{`"anatomy"`, `"mean_ns"`, `"p99_ns"`, `"exec"`} {
		if !strings.Contains(out, want) {
			t.Errorf("export missing %s:\n%s", want, out)
		}
	}
	if strings.Contains(out, `"decode"`) {
		t.Error("all-zero phase should be omitted from the anatomy section")
	}
}
