package experiments

import (
	"fmt"
	"io"

	"paella/internal/core"
	"paella/internal/model"
	"paella/internal/serving"
	"paella/internal/sim"
	"paella/internal/telemetry"
	"paella/internal/workload"
)

func init() {
	register(Experiment{
		Name:  "batching",
		Title: "Extension (§8): SLO-aware dynamic batching in the Paella dispatcher",
		Run:   runPaellaBatching,
	})
}

// batchSLO is the completion deadline the goodput columns score against —
// loose enough that an unloaded system always meets it, tight enough that a
// saturated unbatched queue blows through it.
const batchSLO = 100 * sim.Millisecond

// runPaellaBatching sweeps offered load over a zipf many-models workload
// and compares unbatched Paella, Paella with dispatcher batching
// (the Paella-batch system), and the Triton batching baseline. The
// interesting cells are the extremes: at low load batching must disengage
// (identical latency), at saturating load the widened launches must buy
// goodput.
func runPaellaBatching(out io.Writer, d Detail) error {
	jobs, zoo := 3000, 12
	rates := []float64{200, 1000, 2000, 4000, 8000}
	if d == Quick {
		jobs, zoo = 250, 8
		rates = []float64{300, 2400}
	}
	models := model.SyntheticZoo(zoo)
	names := make([]string, len(models))
	for i, m := range models {
		names[i] = m.Name
	}
	mix := workload.ZipfMix(names, 1.1)

	opts := serving.DefaultOptions()
	opts.Models = models
	opts.ProfileRuns = 1

	systems := []string{"Paella", "Paella-batch", "Triton-batch"}
	fmt.Fprintf(out, "Extension — dispatcher batching, zipf(1.1) over SyntheticZoo(%d), SLO %v:\n", zoo, batchSLO)

	// results[system][rateIdx]
	goodputs := map[string][]float64{}
	tputs := map[string][]float64{}
	var meanBatch float64
	var anatomyRows []telemetry.SystemAnatomy
	for _, system := range systems {
		fmt.Fprintf(out, "\n  %s:\n", system)
		fmt.Fprintf(out, "    %10s %12s %14s %12s %12s\n", "offered", "tput(req/s)", "goodput(req/s)", "p50", "p99")
		for _, rate := range rates {
			trace := workload.MustGenerate(workload.Spec{
				Mix: mix, Sigma: 2, RatePerSec: rate,
				Jobs: jobs, Clients: 8, Seed: 5,
			})
			runOpts := opts
			runOpts.MaxSimTime = trace[len(trace)-1].At + 8*sim.Second
			sys := serving.MustNewSystem(system)
			col := serving.MustRunTrace(sys, trace, runOpts)
			fmt.Fprintf(out, "    %10.0f %12.1f %14.1f %12v %12v\n",
				rate, col.Throughput(), col.Goodput(batchSLO), col.P50(), col.P99())
			tputs[system] = append(tputs[system], col.Throughput())
			goodputs[system] = append(goodputs[system], col.Goodput(batchSLO))
			if rate == rates[len(rates)-1] {
				anatomyRows = append(anatomyRows, telemetry.SystemAnatomy{System: system, Collector: col})
			}
			if system == "Paella-batch" && rate == rates[len(rates)-1] {
				meanBatch = col.MeanBatchSize()
				if ds, ok := sys.(interface{ Dispatcher() *core.Dispatcher }); ok {
					st := ds.Dispatcher().Stats()
					fmt.Fprintf(out, "    batches=%d batched-jobs=%d holds=%d mean-size=%.2f\n",
						st.Batches, st.BatchedJobs, st.BatchHolds, meanBatch)
				}
			}
		}
	}

	last := len(rates) - 1
	var tputSpeedup, goodputSpeedup float64
	if p := tputs["Paella"][last]; p > 0 {
		tputSpeedup = tputs["Paella-batch"][last] / p
	}
	if p := goodputs["Paella"][last]; p > 0 {
		goodputSpeedup = goodputs["Paella-batch"][last] / p
	}
	fmt.Fprintf(out, "\nSaturating load (%.0f req/s): Paella-batch vs Paella = %.2fx throughput, %.2fx goodput(SLO %v).\n",
		rates[last], tputSpeedup, goodputSpeedup, batchSLO)
	fmt.Fprintln(out, "At low load the adaptive window disengages (no holds), so unbatched")
	fmt.Fprintln(out, "and batched latency match; Triton-batch pays its window on every request.")

	// Latency anatomy at the saturating load: batching converts sched-wait
	// (the saturated ready queue) into a bounded batch-hold plus wider —
	// slightly longer — exec, which is where the goodput comes from.
	fmt.Fprintf(out, "\nLatency anatomy at %.0f req/s (phase means / p99s):\n", rates[last])
	if err := telemetry.WriteAnatomyTable(out, anatomyRows); err != nil {
		return err
	}
	return nil
}
