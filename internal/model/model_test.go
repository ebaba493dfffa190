package model

import (
	"testing"

	"paella/internal/gpu"
	"paella/internal/sim"
)

func TestTable2ModelsGenerate(t *testing.T) {
	entries := Table2()
	if len(entries) != 8 {
		t.Fatalf("Table2 has %d entries, want 8", len(entries))
	}
	for _, e := range entries {
		m := Generate(e)
		if err := m.Validate(); err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if m.NumExecutions() != e.Executions {
			t.Errorf("%s: executions = %d, want %d", e.Name, m.NumExecutions(), e.Executions)
		}
		if m.NumUnique() != e.Unique {
			t.Errorf("%s: unique = %d, want %d", e.Name, m.NumUnique(), e.Unique)
		}
		// Kernel time should land within 5% of the Table 2 target (the
		// 1µs floor can push tiny kernels up slightly).
		got := float64(m.KernelTime())
		want := float64(e.ExecTime)
		if got < want*0.95 || got > want*1.05 {
			t.Errorf("%s: kernel time %v, want ≈%v", e.Name, m.KernelTime(), e.ExecTime)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	e := Table2()[0]
	a, b := Generate(e), Generate(e)
	if a.NumExecutions() != b.NumExecutions() || a.NumUnique() != b.NumUnique() {
		t.Fatal("shape differs between generations")
	}
	for i := range a.Seq {
		if a.Seq[i] != b.Seq[i] {
			t.Fatal("sequence differs between generations")
		}
	}
	for i := range a.Kernels {
		if *a.Kernels[i] != *b.Kernels[i] {
			t.Fatalf("kernel %d differs between generations", i)
		}
	}
}

func TestModelsDistinct(t *testing.T) {
	ms := Table2Models()
	seen := map[string]bool{}
	for _, m := range ms {
		if seen[m.Name] {
			t.Fatalf("duplicate model %s", m.Name)
		}
		seen[m.Name] = true
	}
	// Sorted by kernel time.
	for i := 1; i < len(ms); i++ {
		if ms[i].KernelTime() < ms[i-1].KernelTime() {
			t.Fatal("Table2Models not sorted by kernel time")
		}
	}
}

func TestByName(t *testing.T) {
	m, err := ByName("resnet18")
	if err != nil || m.Name != "resnet18" {
		t.Fatalf("ByName(resnet18) = %v, %v", m, err)
	}
	if _, err := ByName("nonexistent"); err == nil {
		t.Fatal("ByName(nonexistent) did not error")
	}
	if _, err := ByName("gpt2"); err != nil {
		t.Fatalf("ByName(gpt2) = %v", err)
	}
}

func TestCounts(t *testing.T) {
	m := &Model{
		Name:    "x",
		Kernels: []*gpu.KernelSpec{{Name: "a", Blocks: 1, ThreadsPerBlock: 1, BlockDuration: 1}, {Name: "b", Blocks: 1, ThreadsPerBlock: 1, BlockDuration: 1}},
		Seq:     []int{0, 1, 0, 0},
	}
	c := m.Counts()
	if c[0] != 3 || c[1] != 1 {
		t.Fatalf("Counts = %v", c)
	}
	if m.TotalBlocks() != 4 {
		t.Fatalf("TotalBlocks = %d", m.TotalBlocks())
	}
}

func TestFig2Job(t *testing.T) {
	m := Fig2Job()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.NumExecutions() != 8 {
		t.Fatalf("executions = %d, want 8", m.NumExecutions())
	}
	k := m.Kernels[0]
	if k.ThreadsPerBlock != 128 || k.RegsPerThread != 9 || k.BlockDuration != 300*sim.Microsecond {
		t.Fatalf("kernel = %+v", k)
	}
	// On the GTX 1660 SUPER, 176 of these blocks fit concurrently (§2.1).
	if got := k.MaxResident(gpu.GTX1660Super()); got != 176 {
		t.Fatalf("MaxResident = %d, want 176", got)
	}
}

func TestTinyNetIsTiny(t *testing.T) {
	tiny := TinyNet()
	smallest := Generate(Table2()[0])
	if tiny.KernelTime()*10 > smallest.KernelTime() {
		t.Fatalf("TinyNet (%v) not much smaller than resnet18 (%v)",
			tiny.KernelTime(), smallest.KernelTime())
	}
}

func TestValidateRejectsBadModels(t *testing.T) {
	bad := []*Model{
		{Name: "", Seq: []int{0}, Kernels: []*gpu.KernelSpec{{Name: "k", Blocks: 1, ThreadsPerBlock: 1}}},
		{Name: "noseq", Kernels: []*gpu.KernelSpec{{Name: "k", Blocks: 1, ThreadsPerBlock: 1}}},
		{Name: "badidx", Seq: []int{5}, Kernels: []*gpu.KernelSpec{{Name: "k", Blocks: 1, ThreadsPerBlock: 1}}},
		{Name: "badkern", Seq: []int{0}, Kernels: []*gpu.KernelSpec{{Name: "k", Blocks: 0, ThreadsPerBlock: 1}}},
	}
	for _, m := range bad {
		if m.Validate() == nil {
			t.Errorf("model %q validated", m.Name)
		}
	}
}

func TestLongShort(t *testing.T) {
	short, long := LongShort()
	if long.NumExecutions() != 5*short.NumExecutions() {
		t.Fatalf("long/short kernel ratio = %d/%d, want 5×",
			long.NumExecutions(), short.NumExecutions())
	}
}

func TestZooKernelsFitEvalGPUs(t *testing.T) {
	for _, cfg := range []gpu.Config{gpu.TeslaT4(), gpu.GTX1660Super(), gpu.TeslaP100()} {
		for _, m := range Table2Models() {
			for _, k := range m.Kernels {
				if !k.FitsSM(cfg.SM) {
					t.Errorf("%s kernel %s does not fit %s", m.Name, k.Name, cfg.Name)
				}
			}
		}
	}
}
