package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"paella/internal/gateway"
	"paella/internal/gpu"
	"paella/internal/model"
	"paella/internal/serving"
	"paella/internal/sim"
	"paella/internal/workload"
)

func init() {
	register(Experiment{
		Name:  "scale",
		Title: "Extension (§8): engine scaling — shared-Env vs World serial vs World parallel",
		Run:   runScale,
	})
}

// ScaleOutEnv names the environment variable that, when set, makes the
// scale experiment write its machine-readable report (the BENCH_scale.json
// format) to the named file in addition to the table.
const ScaleOutEnv = "PAELLA_SCALE_OUT"

// Seed-baseline environment variables: the wall clock of the repository's
// seed commit running the identical 8-replica workload cannot be measured
// from inside this binary, so the regeneration procedure (EXPERIMENTS.md)
// measures it in a git worktree and passes it in. All three must be set
// for the JSON to include the baseline and a speedup figure.
const (
	ScaleSeedCommitEnv = "PAELLA_SCALE_SEED_COMMIT"
	ScaleSeedWallEnv   = "PAELLA_SCALE_SEED_WALL"  // seconds, e.g. "336.4"
	ScaleSeedStepsEnv  = "PAELLA_SCALE_SEED_STEPS" // event count of that run
)

// ScaleEngineResult is one engine's timing on one cell of the sweep.
type ScaleEngineResult struct {
	Engine    string  `json:"engine"` // "legacy" | "world-serial" | "world-parallel"
	WallSec   float64 `json:"wall_sec"`
	Steps     uint64  `json:"steps"`
	EventsPS  float64 `json:"events_per_sec"`
	Completed int     `json:"completed"`
	P50Ms     float64 `json:"p50_ms"`
	P99Ms     float64 `json:"p99_ms"`
	MeanMs    float64 `json:"mean_ms"`
}

// ScaleCell is one replica-count point of the sweep.
type ScaleCell struct {
	Replicas int                 `json:"replicas"`
	Jobs     int                 `json:"jobs"`
	Engines  []ScaleEngineResult `json:"engines"`
	// Identical reports whether World serial and World parallel produced
	// byte-for-byte identical job metrics — the determinism contract.
	Identical bool `json:"identical"`
}

// ScaleSeedBaseline records the seed commit's wall clock on the largest
// cell, measured out-of-process (see EXPERIMENTS.md for the procedure).
type ScaleSeedBaseline struct {
	Commit  string  `json:"commit"`
	WallSec float64 `json:"wall_sec"`
	Steps   uint64  `json:"steps"`
	Method  string  `json:"method"`
}

// ScaleReport is the BENCH_scale.json document.
type ScaleReport struct {
	Schema   string `json:"schema"`
	Detail   string `json:"detail"` // "quick" | "full"
	GOOS     string `json:"goos"`
	GOARCH   string `json:"goarch"`
	NumCPU   int    `json:"num_cpu"`
	Go       string `json:"go"`
	Workload string `json:"workload"`
	Cells    []ScaleCell
	// SeedBaseline and SpeedupVsSeed compare the largest cell's legacy
	// engine against the seed commit's engine on the same workload.
	SeedBaseline  *ScaleSeedBaseline `json:"seed_baseline,omitempty"`
	SpeedupVsSeed float64            `json:"speedup_vs_seed,omitempty"`
}

// scaleWorkload builds the sweep's workload for one replica count: a
// zipf(1.1) mix over an 8-model synthetic zoo, offered load scaled with
// the cluster size. Seed and shape match the seed-baseline driver
// (cmd/scalebench) so wall clocks are comparable.
func scaleWorkload(replicas, jobs int) ([]*model.Model, []workload.Request) {
	models := model.SyntheticZoo(8)
	names := make([]string, len(models))
	for i, m := range models {
		names[i] = m.Name
	}
	reqs := workload.MustGenerate(workload.Spec{
		Mix: workload.ZipfMix(names, 1.1), Sigma: 2,
		RatePerSec: 800 * float64(replicas), Jobs: jobs, Clients: 8, Seed: 42,
	})
	return models, reqs
}

// scaleRun is the scale workload loaded onto one engine: a fleet with every
// arrival scheduled, ready to run.
type scaleRun struct {
	*serving.Fleet
	reqs []workload.Request
}

// newScaleRun builds the (cell, engine) combination. World engines put each
// replica on its own shard; the legacy engine multiplexes all replicas on
// one Env, as the pre-World code did. The runner closes a World engine.
func newScaleRun(engine string, replicas, jobs int) (*scaleRun, error) {
	models, reqs := scaleWorkload(replicas, jobs)
	fo := serving.FleetOptions{Devices: make([]gpu.Config, replicas), Gateway: gateway.NewLeastLoaded()}
	for i := range fo.Devices {
		fo.Devices[i] = gpu.TeslaT4()
	}
	switch engine {
	case "legacy": // one Env, the fleet default
	case "world-serial", "world-parallel":
		fo.World = sim.NewWorld()
		fo.World.SetParallel(engine == "world-parallel")
	default:
		return nil, fmt.Errorf("scale: unknown engine %q", engine)
	}
	f, err := serving.NewFleet(fleetOptions(models, 0), fo)
	if err != nil {
		return nil, err
	}
	f.Arrive(reqs, f.Connect().Submit)
	return &scaleRun{Fleet: f, reqs: reqs}, nil
}

// steps counts the events every Env of the engine has executed.
func (r *scaleRun) steps() uint64 {
	steps := r.Env().Steps()
	if w := r.World(); w != nil {
		for i := 0; i < w.NumShards(); i++ {
			steps += w.Shard(i).Steps()
		}
	}
	return steps
}

// runScaleEngine executes one (cell, engine) combination and returns its
// result.
func runScaleEngine(engine string, replicas, jobs int) (ScaleEngineResult, error) {
	r, err := newScaleRun(engine, replicas, jobs)
	if err != nil {
		return ScaleEngineResult{}, err
	}
	if w := r.World(); w != nil {
		defer w.Close()
	}
	start := time.Now()
	r.RunUntil(r.reqs[len(r.reqs)-1].At + 8*sim.Second)
	wall := time.Since(start)

	steps := r.steps()
	col := r.Collector()
	return ScaleEngineResult{
		Engine:    engine,
		WallSec:   wall.Seconds(),
		Steps:     steps,
		EventsPS:  float64(steps) / wall.Seconds(),
		Completed: col.Len(),
		P50Ms:     col.P50().Millis(),
		P99Ms:     col.P99().Millis(),
		MeanMs:    col.MeanJCT().Millis(),
	}, nil
}

// MeasureScaleCell times the legacy engine on one (replicas, jobs) cell —
// the probe cmd/benchguard uses for its advisory timing gate.
func MeasureScaleCell(replicas, jobs int) (ScaleEngineResult, error) {
	return runScaleEngine("legacy", replicas, jobs)
}

// MeasureAllocsPerEvent measures steady-state heap allocations per engine
// event on the scale workload: the first half of the trace warms every pool
// and arena to its high-water mark, then the second half is measured with
// runtime.MemStats. The result is fractional — per-job admission still
// allocates a few records, amortized over thousands of events per job — and
// cmd/benchguard fails if it reaches 0.5 (i.e. would round to ≥1 alloc per
// event on a `go test -benchmem` report).
func MeasureAllocsPerEvent(replicas, jobs int) (float64, error) {
	r, err := newScaleRun("legacy", replicas, jobs)
	if err != nil {
		return 0, err
	}
	r.RunUntil(r.reqs[len(r.reqs)/2].At)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	s0 := r.steps()
	r.RunUntil(r.reqs[len(r.reqs)-1].At + 8*sim.Second)
	runtime.ReadMemStats(&m1)
	steps := r.steps() - s0
	if steps == 0 {
		return 0, fmt.Errorf("scale: allocs probe measured no events")
	}
	return float64(m1.Mallocs-m0.Mallocs) / float64(steps), nil
}

// runScale sweeps replica counts and, per cell, times the three engines on
// the identical workload. World serial and parallel must agree exactly on
// every job metric (the bit-identity contract the property tests enforce
// at trace granularity); a mismatch fails the experiment.
func runScale(out io.Writer, d Detail) error {
	replicaSweep := []int{1, 2, 4, 8}
	jobsPer := 25000
	detail := "full"
	if d == Quick {
		replicaSweep = []int{1, 2}
		jobsPer = 200
		detail = "quick"
	}
	fmt.Fprintln(out, "Extension — engine scaling, zipf(1.1) synthetic zoo, least-loaded balancer:")
	fmt.Fprintf(out, "  %-8s %-8s %-15s %10s %12s %8s %10s\n",
		"replicas", "jobs", "engine", "wall", "events/s", "n", "p99")

	report := ScaleReport{
		Schema: "paella-scale-bench/v1", Detail: detail,
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), Go: runtime.Version(),
		Workload: "zipf(1.1) over SyntheticZoo(8), sigma=2, 800 req/s per replica, 8 clients, seed 42",
	}
	for _, replicas := range replicaSweep {
		jobs := jobsPer * replicas
		cell := ScaleCell{Replicas: replicas, Jobs: jobs}
		for _, engine := range []string{"legacy", "world-serial", "world-parallel"} {
			res, err := runScaleEngine(engine, replicas, jobs)
			if err != nil {
				return err
			}
			cell.Engines = append(cell.Engines, res)
			fmt.Fprintf(out, "  %-8d %-8d %-15s %10.3fs %12.0f %8d %9.2fms\n",
				replicas, jobs, engine, res.WallSec, res.EventsPS, res.Completed, res.P99Ms)
		}
		ser, par := cell.Engines[1], cell.Engines[2]
		cell.Identical = ser.Completed == par.Completed && ser.P50Ms == par.P50Ms &&
			ser.P99Ms == par.P99Ms && ser.MeanMs == par.MeanMs && ser.Steps == par.Steps
		if !cell.Identical {
			return fmt.Errorf("scale: world serial and parallel diverged at %d replicas: %+v vs %+v",
				replicas, ser, par)
		}
		report.Cells = append(report.Cells, cell)
	}
	fmt.Fprintln(out, "\nWorld serial and parallel runs are metric-identical at every point")
	fmt.Fprintln(out, "(the conservative-window determinism contract). Events/s measures the")
	fmt.Fprintln(out, "engine, not the modeled GPUs: virtual throughput is identical across")
	fmt.Fprintln(out, "engines by construction.")

	if commit := os.Getenv(ScaleSeedCommitEnv); commit != "" {
		var wall float64
		var steps uint64
		fmt.Sscanf(os.Getenv(ScaleSeedWallEnv), "%f", &wall)
		fmt.Sscanf(os.Getenv(ScaleSeedStepsEnv), "%d", &steps)
		if wall > 0 {
			report.SeedBaseline = &ScaleSeedBaseline{
				Commit: commit, WallSec: wall, Steps: steps,
				Method: "cmd/scalebench built in a worktree at the seed commit; see EXPERIMENTS.md",
			}
			last := report.Cells[len(report.Cells)-1]
			report.SpeedupVsSeed = wall / last.Engines[0].WallSec
			fmt.Fprintf(out, "\nSeed baseline (%s): %.2fs → %.2fx speedup on the largest cell.\n",
				commit, wall, report.SpeedupVsSeed)
		}
	}
	if path := os.Getenv(ScaleOutEnv); path != "" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(&report); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "\nwrote %s\n", path)
	}
	return nil
}
