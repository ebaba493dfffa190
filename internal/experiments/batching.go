package experiments

import (
	"fmt"
	"io"

	"paella/internal/model"
	"paella/internal/serving"
	"paella/internal/sim"
	"paella/internal/telemetry"
	"paella/internal/workload"
)

func init() {
	register(Experiment{
		Name:  "ablation-batching",
		Title: "Extension (§8): dynamic batching vs critical-path latency",
		Run:   runAblationBatching,
	})
}

// runAblationBatching quantifies the §2.2/§8 argument: dynamic batching
// amortizes per-request overheads — raising a saturated frontend's
// throughput — but its window wait and batched execution are poison for
// critical-path latency, which is why Paella does not batch.
func runAblationBatching(w io.Writer, d Detail) error {
	jobs := 600
	if d == Quick {
		jobs = 150
	}
	opts := serving.DefaultOptions()
	opts.Models = []*model.Model{model.Generate(model.Table2()[1])} // mobilenetv2
	opts.ProfileRuns = 1

	configs := []struct {
		label string
		mk    func() serving.System
	}{
		{"Triton (no batching)", func() serving.System { return serving.MustNewSystem("Triton") }},
		{"Triton batch≤8 w=1ms", func() serving.System { return serving.NewTritonBatching(sim.Millisecond, 8) }},
		{"Triton batch≤32 w=5ms", func() serving.System { return serving.NewTritonBatching(5*sim.Millisecond, 32) }},
		{"Paella", func() serving.System { return serving.MustNewSystem("Paella") }},
	}

	fmt.Fprintln(w, "Extension — dynamic batching trade-off (MobileNetV2):")
	rates := []float64{100, 400, 1200}
	var anatomyRows []telemetry.SystemAnatomy
	for ri, rate := range rates {
		fmt.Fprintf(w, "\noffered %.0f req/s:\n", rate)
		fmt.Fprintf(w, "  %-24s %14s %12s %12s\n", "system", "tput (req/s)", "p50", "p99")
		trace := workload.MustGenerate(workload.Spec{
			Mix: workload.Uniform("mobilenetv2"), Sigma: 1.5,
			RatePerSec: rate, Jobs: jobs, Clients: 8, Seed: 66,
		})
		runOpts := opts
		runOpts.MaxSimTime = trace[len(trace)-1].At + 8*sim.Second
		for _, c := range configs {
			col := serving.MustRunTrace(c.mk(), trace, runOpts)
			fmt.Fprintf(w, "  %-24s %14.1f %12v %12v\n",
				c.label, col.Throughput(), col.P50(), col.P99())
			if ri == len(rates)-1 {
				anatomyRows = append(anatomyRows, telemetry.SystemAnatomy{System: c.label, Collector: col})
			}
		}
	}

	// Where the latency goes at saturation: the anatomy attributes the
	// batching configurations' extra p99 to batch-hold (window wait) and
	// sched-wait, against Paella's exec-dominated profile.
	fmt.Fprintf(w, "\nLatency anatomy at %.0f req/s (phase means / p99s):\n", rates[len(rates)-1])
	if err := telemetry.WriteAnatomyTable(w, anatomyRows); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nExpected: batching rescues Triton's throughput at saturation but")
	fmt.Fprintln(w, "adds window-wait latency at low load; Paella reaches higher")
	fmt.Fprintln(w, "throughput without batching at all (§8).")
	return nil
}
