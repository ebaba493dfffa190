package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"paella/internal/gpu"
	"paella/internal/model"
	"paella/internal/serving"
	"paella/internal/sim"
	"paella/internal/workload"
)

func init() {
	register(Experiment{
		Name:  "scale",
		Title: "Extension (§8): engine scaling — shared Env vs sharded World",
		Run:   runScale,
	})
}

// scaleResult is one engine's run on one cell of the sweep: what the table
// prints, plus the event count the steps trailer pins.
type scaleResult struct {
	wallSec   float64
	steps     uint64
	eventsPS  float64
	completed int
	p99Ms     float64
}

// scaleWorkload builds the sweep's workload for one replica count: a
// zipf(1.1) mix over an 8-model synthetic zoo, offered load scaled with
// the cluster size.
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
	opts := fleetOptions(models, 0)
	opts.Devices = make([]gpu.Config, replicas)
	for i := range opts.Devices {
		opts.Devices[i] = gpu.TeslaT4()
	}
	switch engine {
	case "legacy": // one Env, the fleet default
	case "world-serial":
		opts.World = sim.NewWorld()
	default:
		return nil, fmt.Errorf("scale: unknown engine %q", engine)
	}
	f, err := serving.NewFleet(opts)
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
func runScaleEngine(engine string, replicas, jobs int) (scaleResult, error) {
	r, err := newScaleRun(engine, replicas, jobs)
	if err != nil {
		return scaleResult{}, err
	}
	if w := r.World(); w != nil {
		defer w.Close()
	}
	start := time.Now()
	r.RunUntil(r.reqs[len(r.reqs)-1].At + 8*sim.Second)
	wall := time.Since(start)

	steps := r.steps()
	col := r.Collector()
	return scaleResult{
		wallSec:   wall.Seconds(),
		steps:     steps,
		eventsPS:  float64(steps) / wall.Seconds(),
		completed: col.Len(),
		p99Ms:     col.P99().Millis(),
	}, nil
}

// runScale sweeps replica counts and, per cell, times the two engines on
// the identical workload. A trailer lists every (cell, engine)'s event
// count, the deterministic part of the table.
func runScale(out io.Writer, d Detail) error {
	replicaSweep := []int{1, 2, 4, 8}
	jobsPer := 25000
	if d == Quick {
		replicaSweep = []int{1, 2}
		jobsPer = 200
	}
	fmt.Fprintln(out, "Extension — engine scaling, zipf(1.1) synthetic zoo, least-loaded balancer:")
	fmt.Fprintf(out, "  %-8s %-8s %-15s %10s %12s %8s %10s\n",
		"replicas", "jobs", "engine", "wall", "events/s", "n", "p99")

	var steps strings.Builder
	for _, replicas := range replicaSweep {
		jobs := jobsPer * replicas
		for _, engine := range []string{"legacy", "world-serial"} {
			res, err := runScaleEngine(engine, replicas, jobs)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "  %-8d %-8d %-15s %10.3fs %12.0f %8d %9.2fms\n",
				replicas, jobs, engine, res.wallSec, res.eventsPS, res.completed, res.p99Ms)
			fmt.Fprintf(&steps, "  replicas=%d engine=%s steps=%d\n", replicas, engine, res.steps)
		}
	}
	fmt.Fprintln(out, "\nEvents/s measures the engine, not the modeled GPUs. The World delivers")
	fmt.Fprintln(out, "cross-shard callbacks at window barriers, so its step counts differ")
	fmt.Fprintln(out, "slightly from the shared Env's.")
	fmt.Fprint(out, "\n\nsteps:\n", steps.String())
	return nil
}
