// Package experiments regenerates every table and figure of the paper's
// evaluation (§2 and §7). Each experiment is a named runner that prints the
// same rows/series the paper reports, plus the paper's published values
// where applicable so the shapes can be compared directly (absolute numbers
// differ: the substrate is a simulator, not the authors' testbed).
//
// Run them via cmd/paella-bench, the root-level benchmarks in
// bench_test.go, or directly:
//
//	exp, _ := experiments.ByName("fig11")
//	exp.Run(os.Stdout, experiments.Quick)
package experiments

import (
	"fmt"
	"io"
	"sort"

	"paella/internal/compiler"
	"paella/internal/metrics"
	"paella/internal/model"
	"paella/internal/serving"
	"paella/internal/sim"
	"paella/internal/vram"
	"paella/internal/workload"
)

// Detail selects how much work an experiment does.
type Detail int

const (
	// Quick runs a reduced sweep (for tests and -short benchmarks).
	Quick Detail = iota
	// Full runs the paper-scale sweep.
	Full
)

// Experiment is one reproducible table/figure runner.
type Experiment struct {
	// Name is the registry key, e.g. "fig11".
	Name string
	// Title describes what the paper artifact shows.
	Title string
	// Run executes the experiment and writes its report.
	Run func(w io.Writer, d Detail) error
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// All returns every registered experiment in a stable order.
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ByName looks up an experiment.
func ByName(name string) (Experiment, error) {
	for _, e := range registry {
		if e.Name == name {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q (try: %v)", name, names())
}

func names() []string {
	var out []string
	for _, e := range All() {
		out = append(out, e.Name)
	}
	return out
}

// LoadPoint is one point of a throughput/latency sweep.
type LoadPoint struct {
	OfferedRate float64
	Throughput  float64
	P99         sim.Time
	Mean        sim.Time
	Completed   int
	// PerModel maps model name → p99 for panel plots.
	PerModelP99 map[string]sim.Time
}

// sweep runs one system across offered rates and returns the points.
func sweep(system string, mix workload.Mix, sigma float64, rates []float64,
	jobs, clients int, opts serving.Options, seed int64) ([]LoadPoint, error) {
	points := make([]LoadPoint, 0, len(rates))
	for _, rate := range rates {
		trace, err := workload.Generate(workload.Spec{
			Mix: mix, Sigma: sigma, RatePerSec: rate,
			Jobs: jobs, Clients: clients, Seed: seed,
		})
		if err != nil {
			return nil, err
		}
		runOpts := opts
		// Give saturated systems a bounded drain window: the arrival span
		// plus a grace period proportional to total offered work.
		runOpts.MaxSimTime = trace[len(trace)-1].At + 8*sim.Second
		sys, err := serving.NewSystem(system)
		if err != nil {
			return nil, err
		}
		col, err := serving.RunTrace(sys, trace, runOpts)
		if err != nil {
			return nil, err
		}
		pt := LoadPoint{
			OfferedRate: rate,
			Throughput:  col.Throughput(),
			P99:         col.P99(),
			Mean:        col.MeanJCT(),
			Completed:   col.Len(),
			PerModelP99: map[string]sim.Time{},
		}
		for _, m := range mix.Models {
			sub := col.FilterModel(m)
			if sub.Len() > 0 {
				pt.PerModelP99[m] = sub.P99()
			}
		}
		points = append(points, pt)
	}
	return points, nil
}

// printSweep renders one system's sweep as a table block.
func printSweep(w io.Writer, system string, pts []LoadPoint) {
	fmt.Fprintf(w, "  %s:\n", system)
	fmt.Fprintf(w, "    %10s %12s %12s %12s %6s\n", "offered", "tput(req/s)", "p99", "mean", "n")
	for _, p := range pts {
		fmt.Fprintf(w, "    %10.0f %12.1f %12v %12v %6d\n",
			p.OfferedRate, p.Throughput, p.P99, p.Mean, p.Completed)
	}
}

// fleetOptions are the Options of every experiment fleet: models compiled
// with the default instrumentation and profiled once, under a per-replica
// VRAM budget of vramBytes (0 = unconstrained).
func fleetOptions(models []*model.Model, vramBytes int64) serving.Options {
	opts := serving.Options{Models: models, CompilerCfg: compiler.DefaultConfig(), ProfileRuns: 1}
	if vramBytes > 0 {
		opts.VRAM = &vram.Config{CapacityBytes: vramBytes}
	}
	return opts
}

// meanOf is a tiny helper for per-record aggregates.
func meanOf(records []metrics.JobRecord, f func(metrics.JobRecord) sim.Time) sim.Time {
	if len(records) == 0 {
		return 0
	}
	var total sim.Time
	for _, r := range records {
		total += f(r)
	}
	return total / sim.Time(len(records))
}
