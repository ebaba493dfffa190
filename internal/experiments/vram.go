package experiments

import (
	"fmt"
	"io"

	"paella/internal/gateway"
	"paella/internal/gpu"
	"paella/internal/model"
	"paella/internal/serving"
	"paella/internal/sim"
	"paella/internal/vram"
	"paella/internal/workload"
)

func init() {
	register(Experiment{
		Name:  "vram",
		Title: "Extension: device-memory residency — cold-start paging and eviction-aware routing",
		Run:   runVRAM,
	})
}

// vramBudget is the per-GPU weight budget used by both parts: small enough
// that realistic zoos overflow it (a T4 has 16 GiB, but most of it goes to
// activations, KV caches and CUDA context — the weight partition is the
// scarce slice this models).
const vramBudget = 256 << 20

// runVRAM exercises the residency subsystem end to end.
//
// Part A grows a synthetic model zoo past the weight budget on one GPU:
// once the working set no longer fits, requests start paying cold-start
// weight loads over the shared PCIe link, the warm-hit ratio falls, and
// tail JCT degrades — the many-models serving problem.
//
// Part B keeps an over-budget zoo on a 2-GPU cluster and compares
// residency-oblivious least-loaded routing against the residency-aware
// balancer: steering requests to the GPU that already holds the weights
// converts cold starts into warm hits, the win of cluster-level locality.
func runVRAM(w io.Writer, d Detail) error {
	zooSizes := []int{2, 4, 8, 16, 24}
	jobsA, jobsB := 1500, 1200
	if d == Quick {
		zooSizes = []int{2, 12}
		jobsA, jobsB = 250, 250
	}

	fmt.Fprintf(w, "Extension — device-memory residency (%d MiB weight budget per GPU)\n", vramBudget>>20)
	fmt.Fprintln(w, "\nPart A: zoo-size sweep, one T4, zipf(1.1) popularity, 250 req/s:")
	fmt.Fprintf(w, "  %6s %9s %6s %6s %10s %11s %12s %12s\n",
		"models", "weights", "n", "cold", "hit-ratio", "mean-load", "p50", "p99")
	for _, n := range zooSizes {
		zoo := model.SyntheticZoo(n)
		names := make([]string, len(zoo))
		var totalWeights int64
		for i, m := range zoo {
			names[i] = m.Name
			totalWeights += int64(m.WeightBytes)
		}
		trace := workload.MustGenerate(workload.Spec{
			Mix: workload.ZipfMix(names, 1.1), Sigma: 1.5,
			RatePerSec: 250, Jobs: jobsA, Clients: 4, Seed: 42,
		})
		sys, err := serving.NewSystem("Paella")
		if err != nil {
			return err
		}
		opts := serving.DefaultOptions()
		opts.Models = zoo
		opts.VRAM = &vram.Config{CapacityBytes: vramBudget}
		opts.MaxSimTime = trace[len(trace)-1].At + 8*sim.Second
		col, err := serving.RunTrace(sys, trace, opts)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %6d %8dM %6d %6d %9.1f%% %11v %12v %12v\n",
			n, totalWeights>>20, col.Len(), col.ColdStarts(),
			100*col.WarmHitRatio(), col.MeanLoadNs(), col.P50(), col.P99())
	}

	const nB = 12
	fmt.Fprintf(w, "\nPart B: 2×T4 cluster, %d-model zoo (over budget), 400 req/s:\n", nB)
	fmt.Fprintf(w, "  %-18s %12s %12s %12s %6s %6s\n",
		"balancer", "tput(req/s)", "p50", "p99", "cold", "loads")
	balancers := []func() gateway.Policy{
		gateway.NewLeastLoaded,
		func() gateway.Policy { return gateway.NewResidencyAware(nil) },
	}
	zoo := model.SyntheticZoo(nB)
	names := make([]string, len(zoo))
	for i, m := range zoo {
		names[i] = m.Name
	}
	trace := workload.MustGenerate(workload.Spec{
		Mix: workload.ZipfMix(names, 1.1), Sigma: 1.5,
		RatePerSec: 400, Jobs: jobsB, Clients: 1, Seed: 42,
	})
	for _, mk := range balancers {
		opts := fleetOptions(zoo, vramBudget)
		opts.Devices, opts.Gateway = []gpu.Config{gpu.TeslaT4(), gpu.TeslaT4()}, mk
		f, err := serving.NewFleet(opts)
		if err != nil {
			return err
		}
		f.Arrive(trace, f.Connect().Submit)
		f.RunUntil(trace[len(trace)-1].At + 8*sim.Second)
		col := f.Collector()
		var loads uint64
		for i := 0; i < f.Size(); i++ {
			loads += f.Dispatcher(i).VRAM().Stats().Loads
		}
		fmt.Fprintf(w, "  %-18s %12.1f %12v %12v %6d %6d\n",
			mk().Name(), col.Throughput(), col.P50(), col.P99(),
			col.ColdStarts(), loads)
	}
	fmt.Fprintln(w, "\nExpected: Part A — once total weights exceed the budget the hit")
	fmt.Fprintln(w, "ratio falls and weight loads inflate tail JCT (loads share PCIe with")
	fmt.Fprintln(w, "tensor traffic; there is no free bandwidth for paging). Part B —")
	fmt.Fprintln(w, "residency-aware routing pins each model to the GPU already holding")
	fmt.Fprintln(w, "its weights, cutting cold starts and reload traffic versus")
	fmt.Fprintln(w, "residency-oblivious least-loaded routing.")
	return nil
}
