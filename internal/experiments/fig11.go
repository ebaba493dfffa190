package experiments

import (
	"fmt"
	"io"

	"paella/internal/model"
	"paella/internal/serving"
	"paella/internal/sim"
	"paella/internal/workload"
)

func init() {
	register(Experiment{
		Name:  "fig11",
		Title: "Figure 11: p99 latency vs throughput, uniform 8-model mix, σ ∈ {2, 1.5}",
		Run:   runFig11,
	})
	register(Experiment{
		Name:  "fig12",
		Title: "Figure 12: p99 latency vs throughput, short (ResNet-18) vs long (InceptionV3) mix",
		Run:   runFig12,
	})
}

// fig11Systems are the systems of the Figure 11 comparison, in plot order.
var fig11Systems = []string{
	"CUDA-SS", "CUDA-MS", "Triton",
	"Paella-SS", "Paella-MS-jbj", "Paella-MS-kbk",
	"Paella-SJF", "Paella-RR", "Paella",
}

// fig12Systems are the systems of the Figure 12 comparison (MPS instead of
// Triton).
var fig12Systems = []string{
	"CUDA-SS", "CUDA-MS", "MPS",
	"Paella-SS", "Paella-MS-jbj", "Paella-MS-kbk",
	"Paella-SJF", "Paella-RR", "Paella",
}

func runFig11(w io.Writer, d Detail) error {
	rates := []float64{50, 100, 200, 300, 400, 500}
	jobs := 400
	systems := fig11Systems
	sigmas := []float64{2, 1.5}
	if d == Quick {
		rates = []float64{100, 300}
		jobs = 150
		systems = []string{"CUDA-SS", "CUDA-MS", "Triton", "Paella"}
		sigmas = []float64{2}
	}
	opts := serving.DefaultOptions()
	opts.ProfileRuns = 1
	mix := workload.Uniform(model.Names()...)

	fmt.Fprintln(w, "Figure 11 — p99 JCT vs average throughput (uniform Table 2 mix):")
	for _, sigma := range sigmas {
		fmt.Fprintf(w, "\nσ = %.1f\n", sigma)
		for _, system := range systems {
			pts, err := sweep(system, mix, sigma, rates, jobs, 8, opts, 101)
			if err != nil {
				return err
			}
			printSweep(w, system, pts)
			// Per-model p99 panels at the highest mutually-sustained rate.
			last := pts[len(pts)-1]
			fmt.Fprintf(w, "      per-model p99 at %0.f req/s offered:", last.OfferedRate)
			for _, name := range mix.Models {
				if v, ok := last.PerModelP99[name]; ok {
					fmt.Fprintf(w, " %s=%v", name, v)
				}
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintln(w, "\nExpected shape (paper): Paella (and its mem-channel ablations)")
	fmt.Fprintln(w, "sustain 1–3 orders of magnitude more load than Triton and CUDA-SS at")
	fmt.Fprintln(w, "lower latency floors; SRPT-based variants hold the lowest p99 for the")
	fmt.Fprintln(w, "small models; RR trades small-model latency for long-model fairness.")
	return nil
}

func runFig12(w io.Writer, d Detail) error {
	rates := []float64{100, 200, 300, 400, 600, 800}
	jobs := 500
	systems := fig12Systems
	sigmas := []float64{2, 1.5}
	if d == Quick {
		rates = []float64{200, 600}
		jobs = 150
		systems = []string{"CUDA-MS", "MPS", "Paella"}
		sigmas = []float64{2}
	}
	opts := serving.DefaultOptions()
	short, long := "resnet18", "inceptionv3"
	opts.Models = []*model.Model{
		model.Generate(model.Table2()[0]), // resnet18
		model.Generate(model.Table2()[7]), // inceptionv3
	}
	opts.ProfileRuns = 1
	// "The ratio of smaller to larger jobs is inversely proportional to
	// their size."
	weights := workload.InverseSizeWeights([]sim.Time{
		sim.Time(1.58 * float64(sim.Millisecond)),
		sim.Time(31.2 * float64(sim.Millisecond)),
	})
	mix := workload.Weighted([]string{short, long}, weights)

	fmt.Fprintln(w, "Figure 12 — short (ResNet-18) vs long (InceptionV3) jobs:")
	for _, sigma := range sigmas {
		fmt.Fprintf(w, "\nσ = %.1f\n", sigma)
		for _, system := range systems {
			pts, err := sweep(system, mix, sigma, rates, jobs, 7, opts, 202)
			if err != nil {
				return err
			}
			printSweep(w, system, pts)
			last := pts[len(pts)-1]
			fmt.Fprintf(w, "      at %0.f req/s offered: ResNet-18 p99=%v, InceptionV3 p99=%v\n",
				last.OfferedRate, last.PerModelP99[short], last.PerModelP99[long])
		}
	}
	fmt.Fprintln(w, "\nExpected shape (paper): short jobs benefit up to ~3× at the tail")
	fmt.Fprintln(w, "under Paella's SRPT-like policy compared to CUDA-MS/MPS, while")
	fmt.Fprintln(w, "long-job latency stays comparable; RR flips the trade-off.")
	return nil
}
