package compiler

import (
	"fmt"

	"paella/internal/gpu"
	"paella/internal/sim"
)

// CoroutineProfileModel is ProfileModel as it was when the profiling runs
// were a process waiting on one completion per kernel, kept verbatim as the
// oracle for TestProfileMatchesCoroutineOracle.
func CoroutineProfileModel(ins *Instrumented, devCfg gpu.Config, runs int) (*Profile, error) {
	if runs <= 0 {
		return nil, fmt.Errorf("compiler: profiling needs at least one run")
	}
	m := ins.Model
	p := &Profile{stats: make(map[string]*KernelStat)}
	env := sim.NewEnv()
	dev := gpu.NewDevice(env, devCfg, nil)
	env.Spawn("profiler", func(proc *sim.Proc) {
		for r := 0; r < runs; r++ {
			for _, ki := range m.Seq {
				spec := m.Kernels[ki]
				start := env.Now()
				done := sim.NewCompletion(env)
				dev.Submit(0, &gpu.Launch{Spec: spec, OnComplete: done.Fire})
				proc.Wait(done)
				p.Observe(spec.Name, env.Now()-start)
			}
		}
	})
	env.Run()
	// Per-job execution counts are exact for deterministic sequences.
	counts := m.Counts()
	// float64 variables, so α's span is the float64 difference the
	// calibration was recorded with, not the exact constant 0.55.
	var alphaLo, alphaHi float64 = DefaultBatchAlphaMin, DefaultBatchAlphaMax
	for i, k := range m.Kernels {
		if st := p.stats[k.Name]; st != nil {
			st.Count = float64(counts[i])
			// Batch-scaling coefficient from the kernel's solo device
			// utilization on the profiling device: the fraction of the
			// occupancy limit one launch already consumes. A saturating
			// kernel (util 1) serializes extra batched samples into more
			// waves (α → max); a small kernel's extra blocks ride idle SMs
			// (α → min).
			util := 1.0
			if maxRes := k.MaxResident(devCfg); maxRes > 0 {
				util = float64(k.Blocks) / float64(maxRes)
				if util > 1 {
					util = 1
				}
			}
			st.BatchAlpha = alphaLo + (alphaHi-alphaLo)*util
		}
	}
	p.rebuild(m)
	ins.Profile = p
	return p, nil
}

// ProfileDiff describes the first difference between two profiles of the
// same model — a kernel's statistics or an entry of the suffix table — or
// returns "" when they are identical.
func ProfileDiff(a, b *Profile) string {
	if len(a.stats) != len(b.stats) {
		return fmt.Sprintf("%d kernels profiled, want %d", len(a.stats), len(b.stats))
	}
	for name, sa := range a.stats {
		sb := b.stats[name]
		if sb == nil {
			return fmt.Sprintf("kernel %q not profiled by the oracle", name)
		}
		if *sa != *sb {
			return fmt.Sprintf("kernel %q: %+v, want %+v", name, *sa, *sb)
		}
	}
	if len(a.remainingAfter) != len(b.remainingAfter) {
		return fmt.Sprintf("suffix table has %d entries, want %d", len(a.remainingAfter), len(b.remainingAfter))
	}
	for j := range a.remainingAfter {
		if a.remainingAfter[j] != b.remainingAfter[j] {
			return fmt.Sprintf("RemainingAfter(%d) = %v, want %v", j, a.remainingAfter[j], b.remainingAfter[j])
		}
	}
	return ""
}
