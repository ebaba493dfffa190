package core

import (
	"testing"

	"paella/internal/model"
)

// TestJobsShareModelOps: admitted jobs of one model follow the op list
// RegisterModel built, sharing its backing array, and that list names the
// instrumented kernels in ModeGated and the originals in the ablation
// modes.
func TestJobsShareModelOps(t *testing.T) {
	for _, mode := range []Mode{ModeGated, ModeKernelByKernel, ModeJobByJob, ModeSingleStream} {
		cfg := gatedCfg()
		cfg.Mode = mode
		if mode != ModeGated {
			cfg.Policy = nil
		}
		_, d := testSetup(t, cfg, model.TinyNet())
		m := d.models["tinynet"]
		want := m.ins.Model
		if mode != ModeGated {
			want = m.ins.Original
		}
		var kernels int
		for _, op := range m.ops {
			if op.kind != opKernel {
				continue
			}
			if op.spec != want.Kernels[want.Seq[kernels]] {
				t.Fatalf("%v: kernel op %d is %q, not the mode's clone of %q", mode, kernels, op.spec.Name, want.Kernels[want.Seq[kernels]].Name)
			}
			kernels++
		}
		if kernels != len(want.Seq) {
			t.Fatalf("%v: %d kernel ops, want %d", mode, kernels, len(want.Seq))
		}
	}

	_, d := testSetup(t, gatedCfg(), model.TinyNet())
	d.Connect()
	d.admit(Request{ID: 1, Model: "tinynet"})
	d.admit(Request{ID: 2, Model: "tinynet"})
	a, b := d.jobs[1].ops, d.jobs[2].ops
	if len(a) == 0 || &a[0] != &b[0] || &a[0] != &d.models["tinynet"].ops[0] {
		t.Fatal("two jobs of one model do not share the model's op list")
	}
}

// TestAdmitAllocs: admitting a gated job allocates the Job and the closure
// of its input copy's completion, and no op list.
func TestAdmitAllocs(t *testing.T) {
	_, d := testSetup(t, gatedCfg(), model.TinyNet())
	d.Connect()
	id := uint64(0)
	got := testing.AllocsPerRun(1000, func() {
		id++
		d.admit(Request{ID: id, Model: "tinynet"})
	})
	if got > 2 {
		t.Fatalf("admit allocates %v objects per job, want at most 2", got)
	}
}
