package compiler

import (
	"fmt"

	"paella/internal/gpu"
	"paella/internal/model"
	"paella/internal/sim"
)

// KernelStat holds the learned execution statistics of one unique kernel,
// identified (as in the paper) by its location in the compiled library —
// here, its name.
type KernelStat struct {
	// Count is the average number of executions per job (C̄ᵢ).
	Count float64
	// MeanTime is the average wall-clock execution time (T̄ᵢ).
	MeanTime sim.Time
	// BatchAlpha is the kernel's batch-scaling coefficient: the marginal
	// per-block cost of one extra batched sample relative to the first
	// (see Profile.BatchScale). Learned during profiling from the kernel's
	// measured solo occupancy; zero means unprofiled (no batching benefit
	// assumed).
	BatchAlpha float64

	samples int
	total   sim.Time
}

// Profile aggregates per-kernel statistics for one model, plus the derived
// suffix table the dispatcher uses for O(1) remaining-time estimates.
type Profile struct {
	stats map[string]*KernelStat
	// remainingAfter[j] is the estimated time to finish a job that has
	// completed j kernel executions: Σ_{i≥j} T̄(Seq[i]).
	remainingAfter []sim.Time
}

// Observe folds one measured kernel execution into the profile. Profiling
// runs call it; the suffix table is rebuilt once they finish.
func (p *Profile) Observe(kernel string, dur sim.Time) {
	st, ok := p.stats[kernel]
	if !ok {
		st = &KernelStat{}
		p.stats[kernel] = st
	}
	st.samples++
	st.total += dur
	st.MeanTime = st.total / sim.Time(st.samples)
}

// MeanTime returns the named kernel's learned mean execution time (zero
// when the kernel is unknown).
func (p *Profile) MeanTime(kernel string) sim.Time {
	if st := p.stats[kernel]; st != nil {
		return st.MeanTime
	}
	return 0
}

// TotalTime returns the estimated execution time of a fresh job.
func (p *Profile) TotalTime() sim.Time {
	if len(p.remainingAfter) == 0 {
		return 0
	}
	return p.remainingAfter[0]
}

// RemainingAfter returns the estimated remaining execution time of a job
// that has completed executed kernel launches. Arguments beyond the end of
// the sequence return zero.
func (p *Profile) RemainingAfter(executed int) sim.Time {
	if executed < 0 {
		executed = 0
	}
	if executed >= len(p.remainingAfter) {
		return 0
	}
	return p.remainingAfter[executed]
}

// BatchAlpha returns the named kernel's learned batch-scaling coefficient
// (1 — no batching benefit — when the kernel is unknown or unprofiled).
func (p *Profile) BatchAlpha(kernel string) float64 {
	if st := p.stats[kernel]; st != nil && st.BatchAlpha > 0 {
		return st.BatchAlpha
	}
	return 1
}

// BatchScale returns the per-block duration multiplier for an n-way
// batched launch of the named kernel: s(n) = (1+(n−1)α)/n, so the widened
// grid's total block-time is B·d·(1+(n−1)α) — the first sample pays full
// cost, each extra sample pays the marginal fraction α. α is per-kernel
// (learned by ProfileModel from measured solo occupancy), not one global
// constant: a kernel already saturating the device gains little from
// batching while an occupancy-starved one gains nearly 1/n.
func (p *Profile) BatchScale(kernel string, n int) float64 {
	if n <= 1 {
		return 1
	}
	a := p.BatchAlpha(kernel)
	return (1 + float64(n-1)*a) / float64(n)
}

// rebuild recomputes the suffix table from the model sequence and current
// means.
func (p *Profile) rebuild(m *model.Model) {
	p.remainingAfter = make([]sim.Time, len(m.Seq)+1)
	for j := len(m.Seq) - 1; j >= 0; j-- {
		k := m.Kernels[m.Seq[j]]
		mean := sim.Time(0)
		if st := p.stats[k.Name]; st != nil {
			mean = st.MeanTime
		}
		p.remainingAfter[j] = p.remainingAfter[j+1] + mean
	}
}

// ProfileModel runs the paper's profiling phase: it executes the model
// `runs` times back-to-back on an idle simulated device, measuring each
// kernel execution's wall time, and returns the resulting profile. The
// profiling device uses the given configuration so occupancy waves are
// reflected in the means. The runs are a chain of callbacks on one
// recycled launch: each kernel's completion observes it and submits the
// next (DESIGN §18).
func ProfileModel(ins *Instrumented, devCfg gpu.Config, runs int) (*Profile, error) {
	if runs <= 0 {
		return nil, fmt.Errorf("compiler: profiling needs at least one run")
	}
	m := ins.Model
	p := &Profile{stats: make(map[string]*KernelStat)}
	env := sim.NewEnv()
	dev := gpu.NewDevice(env, devCfg, nil)
	var (
		l     gpu.Launch
		start sim.Time
		step  func()
	)
	// pos indexes the kernel execution in flight, counted over all runs.
	pos, total := 0, runs*len(m.Seq)
	submit := func() {
		l.Spec, l.OnComplete = m.Kernels[m.Seq[pos%len(m.Seq)]], step
		start = env.Now()
		dev.Submit(0, &l)
	}
	step = func() {
		p.Observe(l.Spec.Name, env.Now()-start)
		l.Recycle()
		if pos++; pos < total {
			submit()
		}
	}
	submit()
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

// Compile is the full pipeline users invoke when submitting a model to the
// service: instrument, then profile on the target device configuration.
func Compile(m *model.Model, cfg Config, devCfg gpu.Config, profileRuns int) (*Instrumented, error) {
	ins, err := Instrument(m, cfg)
	if err != nil {
		return nil, err
	}
	if _, err := ProfileModel(ins, devCfg, profileRuns); err != nil {
		return nil, err
	}
	return ins, nil
}

// MustCompile is Compile for known-good inputs; it panics on error.
func MustCompile(m *model.Model, cfg Config, devCfg gpu.Config, profileRuns int) *Instrumented {
	ins, err := Compile(m, cfg, devCfg, profileRuns)
	if err != nil {
		panic(err)
	}
	return ins
}
