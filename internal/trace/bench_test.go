package trace

import (
	"testing"

	"paella/internal/sim"
)

// TestNilRecorderZeroAllocs pins the overhead contract: with tracing
// disabled (nil recorder), every non-variadic emission site costs zero
// allocations — the hot paths of the simulator stay allocation-free.
func TestNilRecorderZeroAllocs(t *testing.T) {
	var r *Recorder
	var tr TrackID
	var p ProcID
	var c CounterID
	cases := []struct {
		name string
		fn   func()
	}{
		{"Span", func() { r.SpanArgs(tr, "k", "kernel", 0, 100) }},
		{"Async", func() { r.Async(p, 1, "exec", "job", 0, 100) }},
		{"Instant", func() { r.Instant(tr, "evict", "vram", 50) }},
		{"Sample", func() { r.Sample(c, "blocks", 50, 2) }},
		{"Process", func() { r.Process("p") }},
		{"Thread", func() { r.Thread(p, "t") }},
		{"Counter", func() { r.Counter(p, "c") }},
	}
	for _, tc := range cases {
		if allocs := testing.AllocsPerRun(100, tc.fn); allocs != 0 {
			t.Errorf("%s on nil recorder: %v allocs/op, want 0", tc.name, allocs)
		}
	}
}

func BenchmarkSpanNil(b *testing.B) {
	var r *Recorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.SpanArgs(1, "k", "kernel", sim.Time(i), sim.Time(i+100))
	}
}

func BenchmarkSpanEnabled(b *testing.B) {
	r := New()
	tr := r.Thread(r.Process("gpu"), "sm0")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.SpanArgs(tr, "k", "kernel", sim.Time(i), sim.Time(i+100))
	}
}

func BenchmarkSampleNil(b *testing.B) {
	var r *Recorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Sample(1, "blocks", sim.Time(i), float64(i%8))
	}
}

func BenchmarkSampleEnabled(b *testing.B) {
	r := New()
	c := r.Counter(r.Process("gpu"), "occ")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Sample(c, "blocks", sim.Time(i), float64(i%8))
	}
}
