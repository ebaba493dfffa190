package experiments

import (
	"fmt"
	"io"

	"paella/internal/compiler"
	"paella/internal/core"
	"paella/internal/gpu"
	"paella/internal/model"
	"paella/internal/serving"
	"paella/internal/workload"
)

func init() {
	register(Experiment{
		Name:  "ablation-b",
		Title: "Ablation: overshoot budget B (§6 full-utilization rule)",
		Run:   runAblationB,
	})
	register(Experiment{
		Name:  "ablation-queues",
		Title: "Ablation: hardware queue count (HoL blocking sensitivity)",
		Run:   runAblationQueues,
	})
	register(Experiment{
		Name:  "ablation-agg",
		Title: "Ablation: notification aggregation group size (§5.2)",
		Run:   runAblationAgg,
	})
	register(Experiment{
		Name:  "table3",
		Title: "Table 3: compared systems and variants",
		Run:   runTable3,
	})
}

// runAblationB sweeps the B overshoot budget: too small starves the GPU
// during the notification round trip; too large re-creates hardware
// queueing and erodes scheduling control.
func runAblationB(w io.Writer, d Detail) error {
	bs := []int{0, 8, 32, 96, 256, 1024}
	jobs := 600
	if d == Quick {
		bs = []int{0, 96}
		jobs = 150
	}
	opts := serving.DefaultOptions()
	opts.ProfileRuns = 1
	mix := workload.Uniform(model.Names()...)
	fmt.Fprintln(w, "Ablation — overshoot budget B at 400 req/s (σ=1.5):")
	fmt.Fprintf(w, "  %8s %14s %12s %12s\n", "B", "tput (req/s)", "p50", "p99")
	for _, b := range bs {
		b := b
		sys := serving.NewPaellaTweaked("Paella", func(c *core.Config) { c.OvershootBlocks = b })
		trace := workload.MustGenerate(workload.Spec{
			Mix: mix, Sigma: 1.5, RatePerSec: 400, Jobs: jobs, Clients: 8, Seed: 33,
		})
		runOpts := opts
		runOpts.MaxSimTime = trace[len(trace)-1].At + 8e9
		col := serving.MustRunTrace(sys, trace, runOpts)
		fmt.Fprintf(w, "  %8d %14.1f %12v %12v\n", b, col.Throughput(), col.P50(), col.P99())
	}
	fmt.Fprintln(w, "\nExpected: small B under-utilizes (lower throughput / higher p99);")
	fmt.Fprintln(w, "large B converges toward the kbk ablation's hardware-queue behaviour.")
	return nil
}

// runAblationQueues sweeps the device's hardware queue count under the
// job-by-job baseline, quantifying how much HoL blocking queue scarcity
// causes (Figure 1's microarchitecture story, at scale).
func runAblationQueues(w io.Writer, d Detail) error {
	queueCounts := []int{1, 2, 8, 32, 128}
	jobs := 1500
	if d == Quick {
		queueCounts = []int{1, 32}
		jobs = 400
	}
	fmt.Fprintln(w, "Ablation — hardware queues vs job-by-job goodput (Fig. 2 workload):")
	fmt.Fprintf(w, "  %8s %14s %12s\n", "queues", "tput (req/s)", "p99")
	for _, q := range queueCounts {
		devCfg := gpu.GTX1660Super()
		devCfg.NumHWQueues = q
		opts := serving.Options{
			DevCfg:      devCfg,
			Models:      []*model.Model{model.Fig2Job()},
			CompilerCfg: compiler.DefaultConfig(),
			ProfileRuns: 1,
		}
		trace := workload.MustGenerate(workload.Spec{
			Mix: workload.Uniform("fig2job"), Sigma: 1.5,
			RatePerSec: 20000, Jobs: jobs, Clients: 8, Seed: 44,
		})
		opts.MaxSimTime = trace[len(trace)-1].At + 4e9
		col := serving.MustRunTrace(serving.MustNewSystem("CUDA-MS"), trace, opts)
		fmt.Fprintf(w, "  %8d %14.1f %12v\n", q, col.Throughput(), col.P99())
	}
	fmt.Fprintln(w, "\nExpected: goodput rises with queue count (less sharing → less HoL")
	fmt.Fprintln(w, "blocking) but plateaus below Paella's informed dispatch (Fig. 2).")
	return nil
}

// runAblationAgg sweeps the notification aggregation group: smaller groups
// flood the dispatcher with records, larger groups delay occupancy
// feedback.
func runAblationAgg(w io.Writer, d Detail) error {
	groups := []int{1, 4, 16, 64}
	jobs := 400
	if d == Quick {
		groups = []int{1, 16}
		jobs = 100
	}
	mix := workload.Uniform(model.Names()...)
	fmt.Fprintln(w, "Ablation — notification aggregation group size at 300 req/s:")
	fmt.Fprintf(w, "  %8s %14s %12s %16s\n", "group", "tput (req/s)", "p99", "notifs handled")
	for _, g := range groups {
		g := g
		opts := serving.DefaultOptions()
		opts.ProfileRuns = 1
		opts.CompilerCfg.AggGroup = g
		sys := serving.NewPaellaTweaked("Paella", func(c *core.Config) {})
		trace := workload.MustGenerate(workload.Spec{
			Mix: mix, Sigma: 1.5, RatePerSec: 300, Jobs: jobs, Clients: 8, Seed: 55,
		})
		opts.MaxSimTime = trace[len(trace)-1].At + 8e9
		col := serving.MustRunTrace(sys, trace, opts)
		disp := sys.(interface{ Dispatcher() *core.Dispatcher }).Dispatcher()
		fmt.Fprintf(w, "  %8d %14.1f %12v %16d\n",
			g, col.Throughput(), col.P99(), disp.Stats().NotifsHandled)
	}
	fmt.Fprintln(w, "\nExpected: ×16 aggregation cuts dispatcher records an order of")
	fmt.Fprintln(w, "magnitude with negligible latency cost (the paper's §5.2 trade).")
	return nil
}

func runTable3(w io.Writer, _ Detail) error {
	fmt.Fprintln(w, "Table 3 — compared systems and variants:")
	fmt.Fprintf(w, "  %-16s %-14s %-10s %-12s\n", "system", "interface", "dispatch", "scheduler")
	for _, row := range serving.Table3() {
		fmt.Fprintf(w, "  %-16s %-14s %-10s %-12s\n", row.Name, row.Interface, row.Dispatch, row.Scheduler)
	}
	return nil
}
