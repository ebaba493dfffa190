package compiler

import (
	"testing"

	"paella/internal/gpu"
	"paella/internal/model"
	"paella/internal/sim"
)

func TestKernelOverheadMatchesFig15(t *testing.T) {
	agg := DefaultConfig()
	noagg := NoAggConfig()
	// Paper Figure 15 (90th percentile): aggregated instrumentation adds
	// ~5.5µs at 16 blocks and ~6.6µs at 160; without aggregation ~2.2µs at
	// 160 blocks.
	cases := []struct {
		cfg      Config
		blocks   int
		min, max sim.Time
	}{
		{agg, 16, 4 * sim.Microsecond, 7 * sim.Microsecond},
		{agg, 160, 5 * sim.Microsecond, 8 * sim.Microsecond},
		{noagg, 160, 1 * sim.Microsecond, 3 * sim.Microsecond},
		{noagg, 16, 500 * sim.Nanosecond, 3 * sim.Microsecond},
	}
	for _, c := range cases {
		got := c.cfg.KernelOverhead(c.blocks)
		if got < c.min || got > c.max {
			t.Errorf("overhead(agg=%d, blocks=%d) = %v, want in [%v, %v]",
				c.cfg.AggGroup, c.blocks, got, c.min, c.max)
		}
	}
	// Aggregation must reduce record count by ~16×.
	if agg.Records(160) != 20 || noagg.Records(160) != 320 {
		t.Errorf("Records: agg=%d noagg=%d", agg.Records(160), noagg.Records(160))
	}
}

func TestInstrumentClonesAndPreserves(t *testing.T) {
	m := model.Generate(model.Table2()[0])
	ins, err := Instrument(m, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if ins.Model == m || &ins.Model.Kernels == &m.Kernels {
		t.Fatal("instrumentation did not clone")
	}
	for i, k := range ins.Model.Kernels {
		orig := m.Kernels[i]
		if k.BlockDuration <= orig.BlockDuration {
			t.Fatalf("kernel %d duration not increased", i)
		}
		if k.Blocks != orig.Blocks || k.ThreadsPerBlock != orig.ThreadsPerBlock {
			t.Fatalf("kernel %d config changed", i)
		}
		// The original must be untouched.
		want := orig.BlockDuration + DefaultConfig().KernelOverhead(orig.Blocks)
		if k.BlockDuration != want {
			t.Fatalf("kernel %d overhead wrong: %v want %v", i, k.BlockDuration, want)
		}
	}
	if len(ins.Model.Seq) != len(m.Seq) {
		t.Fatal("sequence length changed")
	}
}

func TestInstrumentRejectsInvalid(t *testing.T) {
	bad := &model.Model{Name: "bad"}
	if _, err := Instrument(bad, DefaultConfig()); err == nil {
		t.Fatal("invalid model instrumented")
	}
}

func TestProfileModel(t *testing.T) {
	ins, err := Instrument(model.TinyNet(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := gpu.TeslaT4()
	cfg.LaunchOverhead = 0 // exact timing for assertions
	p, err := ProfileModel(ins, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Every kernel observed; means equal the instrumented block durations
	// (each kernel fits in one wave on a T4).
	for _, k := range ins.Model.Kernels {
		st := p.stats[k.Name]
		if st == nil {
			t.Fatalf("kernel %s not profiled", k.Name)
		}
		if st.MeanTime != k.BlockDuration {
			t.Errorf("kernel %s mean = %v, want %v", k.Name, st.MeanTime, k.BlockDuration)
		}
		if st.Count != 1 {
			t.Errorf("kernel %s count = %v", k.Name, st.Count)
		}
	}
	if p.TotalTime() != ins.Model.KernelTime() {
		t.Errorf("TotalTime = %v, want %v", p.TotalTime(), ins.Model.KernelTime())
	}
}

func TestRemainingAfterMonotone(t *testing.T) {
	ins := MustCompile(model.Generate(model.Table2()[1]), DefaultConfig(), gpu.TeslaT4(), 1)
	p := ins.Profile
	prev := p.RemainingAfter(0)
	if prev == 0 {
		t.Fatal("fresh job has zero remaining time")
	}
	for j := 1; j <= ins.Model.NumExecutions(); j++ {
		cur := p.RemainingAfter(j)
		if cur > prev {
			t.Fatalf("remaining increased at %d: %v > %v", j, cur, prev)
		}
		prev = cur
	}
	if p.RemainingAfter(ins.Model.NumExecutions()) != 0 {
		t.Fatal("remaining after completion is nonzero")
	}
	if p.RemainingAfter(99999) != 0 || p.RemainingAfter(-5) != p.RemainingAfter(0) {
		t.Fatal("out-of-range RemainingAfter mishandled")
	}
}

// TestSuffixMatchesFormula checks that the O(1) suffix-table estimate
// agrees with the paper's Σ max(0, C̄ᵢ−cᵢ)·T̄ᵢ formula at every prefix of
// the execution sequence... for the aggregate (both formulations count each
// pending execution once at its kernel's mean time).
func TestSuffixMatchesFormula(t *testing.T) {
	ins := MustCompile(model.Generate(model.Table2()[2]), DefaultConfig(), gpu.TeslaT4(), 1)
	p := ins.Profile
	m := ins.Model
	executed := map[string]int{}
	for j := 0; j <= m.NumExecutions(); j++ {
		bySuffix := p.RemainingAfter(j)
		byFormula := p.RemainingByFormula(executed)
		diff := bySuffix - byFormula
		if diff < 0 {
			diff = -diff
		}
		// Integer division in per-sample means can differ by at most 1ns
		// per kernel.
		if diff > sim.Time(m.NumExecutions()) {
			t.Fatalf("at %d: suffix=%v formula=%v", j, bySuffix, byFormula)
		}
		if j < m.NumExecutions() {
			executed[m.Kernels[m.Seq[j]].Name]++
		}
	}
}

func TestObserveRefinesMean(t *testing.T) {
	p := &Profile{stats: map[string]*KernelStat{}}
	p.Observe("k", 100)
	p.Observe("k", 200)
	if st := p.stats["k"]; st.MeanTime != 150 {
		t.Fatalf("mean = %v, want 150", st.MeanTime)
	}
	if p.MeanTime("missing") != 0 {
		t.Fatal("missing kernel has a mean")
	}
}

func TestProfileRunsValidation(t *testing.T) {
	ins, err := Instrument(model.TinyNet(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ProfileModel(ins, gpu.TeslaT4(), 0); err == nil {
		t.Fatal("zero profiling runs accepted")
	}
}

func TestCompilePipeline(t *testing.T) {
	ins, err := Compile(model.Fig2Job(), DefaultConfig(), gpu.GTX1660Super(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if ins.Profile == nil {
		t.Fatal("Compile did not attach a profile")
	}
	if ins.Profile.TotalTime() <= 0 {
		t.Fatal("profiled total time not positive")
	}
}
