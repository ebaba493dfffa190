package experiments

import (
	"fmt"
	"io"

	"paella/internal/core"
	"paella/internal/model"
	"paella/internal/sched"
	"paella/internal/serving"
	"paella/internal/sim"
	"paella/internal/workload"
)

func init() {
	register(Experiment{
		Name:  "fig13",
		Title: "Figure 13: mean latency of short vs long jobs across the fairness threshold",
		Run:   runFig13,
	})
}

// runFig13 reproduces the fairness sweep: two clients, one submitting
// short jobs and one submitting long jobs with 5× the kernels, under
// sustained overload so scheduling order dominates latency. Lower
// thresholds trigger the deficit override earlier, trading short-job
// latency for long-job latency; as the threshold approaches zero the
// system approaches oldest-first (Paella-SS-like) service.
func runFig13(w io.Writer, d Detail) error {
	thresholds := []float64{500, 400, 300, 200, 100, 50, 0}
	burst := 600 // jobs per type, submitted over a short window
	if d == Quick {
		thresholds = []float64{500, 100, 0}
		burst = 150
	}
	shortM, longM := model.LongShort()
	opts := serving.DefaultOptions()
	opts.Models = []*model.Model{shortM, longM}
	opts.ProfileRuns = 1

	// Client 0 submits shorts, client 1 submits longs, interleaved over a
	// 100ms window — far faster than the device can drain, so both types
	// contend for the whole run.
	var trace []workload.Request
	window := 100 * sim.Millisecond
	for i := 0; i < burst; i++ {
		at := sim.Time(i) * window / sim.Time(burst)
		trace = append(trace, workload.Request{At: at, Model: shortM.Name, Client: 0})
		if i%5 == 0 { // long jobs have 5× kernels; submit 1/5 as many
			trace = append(trace, workload.Request{At: at + 1, Model: longM.Name, Client: 1})
		}
	}

	fmt.Fprintln(w, "Figure 13 — mean JCT vs fairness threshold (less fair → more fair):")
	fmt.Fprintf(w, "  %10s %16s %16s\n", "threshold", "short (8 kern)", "long (40 kern)")
	for _, thr := range thresholds {
		thr := thr
		sys := serving.NewPaellaTweaked("Paella-thr", func(c *core.Config) {
			c.Policy = sched.NewPaella(thr)
		})
		col := serving.MustRunTrace(sys, trace, opts)
		shorts := col.FilterModel(shortM.Name)
		longs := col.FilterModel(longM.Name)
		fmt.Fprintf(w, "  %10.0f %16v %16v\n", thr, shorts.MeanJCT(), longs.MeanJCT())
	}
	fmt.Fprintln(w, "\nExpected shape (paper): decreasing the threshold raises short-job")
	fmt.Fprintln(w, "mean latency and lowers long-job mean latency, converging as the")
	fmt.Fprintln(w, "threshold approaches zero.")
	return nil
}
