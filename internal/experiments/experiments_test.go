package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/quick goldens")

// TestAllExperimentsRunQuick executes every registered experiment in Quick
// mode — the full end-to-end integration test of the repository — and
// compares each report with testdata/quick/<name>.txt byte for byte.
// Rewrite the goldens with -update only for an intended output change.
func TestAllExperimentsRunQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow; skipped with -short")
	}
	exps := All()
	if len(exps) < 13 {
		t.Fatalf("only %d experiments registered", len(exps))
	}
	for _, e := range exps {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(&buf, Quick); err != nil {
				t.Fatalf("%s: %v", e.Name, err)
			}
			if buf.Len() == 0 {
				t.Fatalf("%s produced no output", e.Name)
			}
			got := buf.String()
			if e.Name == "scale" {
				got = maskScale(got)
			}
			pinQuick(t, e.Name, got)
		})
	}
}

// maskScale blanks the wall and events/s columns of the scale table, which
// vary run to run; the report's steps trailer pins each cell's
// deterministic event count instead.
func maskScale(out string) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(out, "\n") {
		if f := strings.Fields(line); len(f) == 7 && (f[2] == "legacy" || strings.HasPrefix(f[2], "world-")) {
			line = fmt.Sprintf("  %-8s %-8s %-15s %11s %12s %8s %11s\n", f[0], f[1], f[2], "-", "-", f[5], f[6])
		}
		b.WriteString(line)
	}
	return b.String()
}

// pinQuick compares an experiment's quick report with its golden; with
// -update it rewrites the golden instead.
func pinQuick(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "quick", name+".txt")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to record)", err)
	}
	if got != string(want) {
		t.Errorf("%s quick report drifted from %s\n--- got ---\n%s--- want ---\n%s", name, path, got, want)
	}
}

func TestByName(t *testing.T) {
	if _, err := ByName("fig11"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown experiment resolved")
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig1", "fig2", "fig3", "fig4", "fig9", "fig10", "fig11", "fig12",
		"fig13", "fig14", "fig15", "table2", "table3",
		"ablation-b", "ablation-queues", "ablation-agg",
		"ablation-batching", "ablation-edf", "ablation-cluster", "ablation-biggpu",
		"llm", "autoscale",
	}
	have := map[string]bool{}
	for _, e := range All() {
		have[e.Name] = true
	}
	for _, name := range want {
		if !have[name] {
			t.Errorf("experiment %q not registered", name)
		}
	}
}

// TestFig3Calibration checks the Figure 3 cost model lands in the paper's
// reported ranges: MobileNetV2 batch-1 overhead is a large fraction of its
// execution, and GPT2's thousands of launches dominate.
func TestFig3Calibration(t *testing.T) {
	mb, err := fig3Check("mobilenetv2", 1)
	if err != nil {
		t.Fatal(err)
	}
	if mb < 40 || mb > 110 {
		t.Errorf("mobilenetv2 batch-1 overhead = %.1f%%, want 40-110%%", mb)
	}
	gpt, err := fig3Check("gpt2", 1)
	if err != nil {
		t.Fatal(err)
	}
	if gpt < 100 {
		t.Errorf("gpt2 batch-1 overhead = %.1f%%, want >100%% (launch-dominated)", gpt)
	}
	big, err := fig3Check("resnet50", 1)
	if err != nil {
		t.Fatal(err)
	}
	if big > mb {
		t.Errorf("resnet50 overhead (%.1f%%) should be below mobilenetv2 (%.1f%%)", big, mb)
	}
	if _, err := fig3Check("bogus", 1); err == nil {
		t.Error("unknown fig3 model resolved")
	}
}

// TestFig4Shapes validates the Figure 4 orderings on a small instance.
func TestFig4Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	const streams, kernels = 4, 100
	cb := fig4Callbacks(streams, kernels)
	sync := fig4StreamSync(streams, kernels)
	pa := fig4Paella(streams, kernels)
	if !(cb > sync && sync > pa) {
		t.Fatalf("ordering violated: callbacks=%v sync=%v paella=%v", cb, sync, pa)
	}
	// Callbacks and sync serialize: doubling streams ≈ doubles time.
	cb2 := fig4Callbacks(2*streams, kernels)
	if float64(cb2) < 1.7*float64(cb) {
		t.Fatalf("callback cost not ~linear in streams: %v vs %v", cb, cb2)
	}
}

// TestFig1Deterministic ensures the timeline renderer output is stable.
func TestFig1Deterministic(t *testing.T) {
	var a, b strings.Builder
	if err := runFig1(&a, Quick); err != nil {
		t.Fatal(err)
	}
	if err := runFig1(&b, Quick); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("fig1 output not deterministic")
	}
}

var _ io.Writer = (*bytes.Buffer)(nil)
