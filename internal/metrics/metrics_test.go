package metrics

import (
	"bytes"
	"encoding/json"
	"testing"
	"testing/quick"

	"paella/internal/sim"
)

func rec(submit, delivered sim.Time) JobRecord {
	return JobRecord{Submit: submit, Admit: submit, ExecDone: delivered, Delivered: delivered}
}

func TestPercentile(t *testing.T) {
	ds := make([]sim.Time, 100)
	for i := range ds {
		ds[i] = sim.Time(i + 1) // 1..100
	}
	cases := []struct {
		p    float64
		want sim.Time
	}{
		{50, 50}, {99, 99}, {100, 100}, {1, 1},
	}
	for _, c := range cases {
		if got := Percentile(ds, c.p); got != c.want {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if Percentile(nil, 99) != 0 {
		t.Error("empty percentile not zero")
	}
}

func TestPercentileBoundaries(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want sim.Time // with input 1..n, nearest-rank = ⌈p/100·n⌉
	}{
		{1, 1, 1}, {1, 50, 1}, {1, 99, 1}, {1, 100, 1},
		{2, 50, 1}, {2, 50.001, 2}, {2, 99, 2},
		{10, 50, 5}, {10, 90, 9}, {10, 91, 10}, {10, 100, 10},
		{100, 1, 1}, {100, 99, 99}, {100, 99.5, 100},
		{1000, 99.9, 999}, {1000, 99.91, 1000},
	}
	for _, c := range cases {
		ds := make([]sim.Time, c.n)
		for i := range ds {
			ds[i] = sim.Time(i + 1)
		}
		if got := Percentile(ds, c.p); got != c.want {
			t.Errorf("Percentile(n=%d, p=%v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	ds := []sim.Time{5, 1, 3}
	Percentile(ds, 50)
	if ds[0] != 5 || ds[1] != 1 || ds[2] != 3 {
		t.Fatal("Percentile mutated its input")
	}
}

func TestPercentileProperty(t *testing.T) {
	f := func(raw []uint16, pRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		ds := make([]sim.Time, len(raw))
		for i, v := range raw {
			ds[i] = sim.Time(v)
		}
		p := float64(pRaw%100) + 1
		got := Percentile(ds, p)
		// Result must be an element of the input.
		found := false
		le := 0
		for _, d := range ds {
			if d == got {
				found = true
			}
			if d <= got {
				le++
			}
		}
		// At least p% of values are ≤ the percentile.
		return found && float64(le)/float64(len(ds))*100 >= p-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestThroughput(t *testing.T) {
	c := NewCollector()
	// 10 jobs delivered over 1 second.
	for i := 0; i < 10; i++ {
		c.Add(rec(sim.Time(i)*100*sim.Millisecond, sim.Time(i+1)*100*sim.Millisecond))
	}
	got := c.Throughput()
	if got < 9.9 || got > 10.1 {
		t.Fatalf("Throughput = %f, want ≈10", got)
	}
	if NewCollector().Throughput() != 0 {
		t.Error("empty throughput not zero")
	}
}

func TestGoodput(t *testing.T) {
	c := NewCollector()
	for i := 0; i < 10; i++ {
		var jct sim.Time = 10 * sim.Millisecond
		if i%2 == 0 {
			jct = 200 * sim.Millisecond
		}
		c.Add(rec(sim.Time(i)*100*sim.Millisecond, sim.Time(i)*100*sim.Millisecond+jct))
	}
	all := c.Throughput()
	good := c.Goodput(50 * sim.Millisecond)
	if good >= all || good <= 0 {
		t.Fatalf("Goodput = %f, Throughput = %f", good, all)
	}
}

func TestFilterModel(t *testing.T) {
	c := NewCollector()
	c.Add(JobRecord{Model: "a", Submit: 0, Delivered: 10})
	c.Add(JobRecord{Model: "b", Submit: 0, Delivered: 20})
	c.Add(JobRecord{Model: "a", Submit: 0, Delivered: 30})
	if got := c.FilterModel("a").Len(); got != 2 {
		t.Fatalf("FilterModel(a) = %d records", got)
	}
}

func TestJCTAndComm(t *testing.T) {
	r := JobRecord{
		Submit: 100, Admit: 110, ExecDone: 200, Delivered: 215, FrameworkNs: 5,
	}
	if r.JCT() != 115 {
		t.Fatalf("JCT = %v", r.JCT())
	}
	if r.CommNs() != 20 {
		t.Fatalf("CommNs = %v", r.CommNs())
	}
}

func TestCommNsClampsAtZero(t *testing.T) {
	// Framework time exceeding the channel crossings (an RPC stack whose
	// measured processing covers serialization end to end) must not yield a
	// negative communication latency.
	r := JobRecord{
		Submit: 100, Admit: 110, ExecDone: 200, Delivered: 215, FrameworkNs: 50,
	}
	if got := r.CommNs(); got != 0 {
		t.Fatalf("CommNs = %v, want 0", got)
	}
}

func TestThroughputZeroSpan(t *testing.T) {
	// All jobs submitted and delivered at the same instant: no span to
	// divide by, so throughput reports zero instead of +Inf.
	c := NewCollector()
	c.Add(rec(5, 5))
	c.Add(rec(5, 5))
	if got := c.Throughput(); got != 0 {
		t.Fatalf("zero-span Throughput = %f, want 0", got)
	}
	if got := c.Goodput(sim.Second); got != 0 {
		t.Fatalf("zero-span Goodput = %f, want 0", got)
	}
}

func TestMean(t *testing.T) {
	if Mean([]sim.Time{10, 20, 30}) != 20 {
		t.Fatal("Mean wrong")
	}
	if Mean(nil) != 0 {
		t.Fatal("empty Mean not zero")
	}
}

func TestCPUStats(t *testing.T) {
	s := CPUStats{BusyNs: 250, Span: 1000}
	if s.Utilization() != 0.25 {
		t.Fatalf("Utilization = %f", s.Utilization())
	}
	if (CPUStats{BusyNs: 2000, Span: 1000}).Utilization() != 1 {
		t.Fatal("utilization not clamped")
	}
	if (CPUStats{}).Utilization() != 0 {
		t.Fatal("zero-span utilization not zero")
	}
}

func TestWriteJSON(t *testing.T) {
	c := NewCollector()
	c.Add(JobRecord{ID: 1, Model: "m", Submit: 10, Admit: 20, FirstDispatch: 30, ExecDone: 40, Delivered: 50})
	var buf bytes.Buffer
	if err := c.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var out []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0]["model"] != "m" || out[0]["jct_ns"].(float64) != 40 {
		t.Fatalf("json = %v", out)
	}
}
