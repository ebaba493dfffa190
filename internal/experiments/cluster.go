package experiments

import (
	"fmt"
	"io"

	"paella/internal/gateway"
	"paella/internal/gpu"
	"paella/internal/model"
	"paella/internal/serving"
	"paella/internal/sim"
	"paella/internal/workload"
)

func init() {
	register(Experiment{
		Name:  "ablation-cluster",
		Title: "Extension (§8): cluster-level balancing over multiple Paella GPUs",
		Run:   runAblationCluster,
	})
}

// runAblationCluster stacks cluster-level routing on top of per-GPU Paella
// scheduling (the hierarchical composition §8 points at): two T4s behind
// round-robin, least-loaded, and model-affinity balancers, under a bursty
// mixed workload.
func runAblationCluster(w io.Writer, d Detail) error {
	jobs := 600
	if d == Quick {
		jobs = 150
	}
	balancers := []func() gateway.Policy{
		gateway.NewRoundRobin,
		gateway.NewLeastLoaded,
		func() gateway.Policy { return gateway.NewModelAffinity(2) },
	}
	names := model.Names()
	trace := workload.MustGenerate(workload.Spec{
		Mix: workload.Uniform(names...), Sigma: 2,
		RatePerSec: 800, Jobs: jobs, Clients: 1, Seed: 13,
	})
	models := make([]*model.Model, len(names))
	for i, name := range names {
		models[i], _ = model.ByName(name)
	}
	opts := fleetOptions(models, 0)
	opts.Devices = []gpu.Config{gpu.TeslaT4(), gpu.TeslaT4()}

	fmt.Fprintln(w, "Extension — 2×T4 cluster at 800 req/s (σ=2, Table 2 mix):")
	fmt.Fprintf(w, "  %-16s %14s %12s %12s\n", "balancer", "tput (req/s)", "p50", "p99")
	for _, mk := range balancers {
		opts.Gateway = mk
		f, err := serving.NewFleet(opts)
		if err != nil {
			return err
		}
		f.Arrive(trace, f.Connect().Submit)
		f.RunUntil(trace[len(trace)-1].At + 8*sim.Second)
		col := f.Collector()
		fmt.Fprintf(w, "  %-16s %14.1f %12v %12v\n",
			mk().Name(), col.Throughput(), col.P50(), col.P99())
	}
	fmt.Fprintln(w, "\nExpected: least-loaded beats round-robin at the tail under bursty")
	fmt.Fprintln(w, "arrivals; affinity trades some balance for model locality. Cluster")
	fmt.Fprintln(w, "routing composes with per-GPU software-defined scheduling (§8).")
	return nil
}
