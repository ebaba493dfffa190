package experiments

import (
	"fmt"
	"io"

	"paella/internal/autoscale"
	"paella/internal/core"
	"paella/internal/gpu"
	"paella/internal/model"
	"paella/internal/serving"
	"paella/internal/sim"
	"paella/internal/telemetry"
	"paella/internal/workload"
)

func init() {
	register(Experiment{
		Name:  "autoscale",
		Title: "Extension (§9): fleet autoscaling under diurnal traffic — SLO-vs-cost frontier",
		Run:   runAutoscale,
	})
}

// autoscaleSLO is the deadline the frontier's attainment column scores
// against.
const autoscaleSLO = 5 * sim.Millisecond

// scaleModel synthesizes the experiment's weighted serving models (same
// palette as the autoscale test wall: sub-millisecond inference, megabyte
// weights so cold starts page real bytes).
func scaleModel(name string, execUs, weightMiB int) *model.Model {
	return model.Generate(model.ZooEntry{
		Name:        name,
		ExecTime:    sim.Time(execUs) * sim.Microsecond,
		Executions:  6,
		Unique:      3,
		InputBytes:  4096,
		OutputBytes: 4096,
		WeightBytes: weightMiB << 20,
	})
}

func autoscaleModels() []*model.Model {
	return []*model.Model{
		scaleModel("autonet-a", 400, 8),
		scaleModel("autonet-b", 300, 6),
	}
}

// fleetRun is one frontier point: a policy (or fleet mix) run under the
// trace, with its cost, attainment, and scaling activity.
type fleetRun struct {
	label      string
	costDay    float64 // dollars, extrapolated to 24h of the trace's shape
	meanActive float64
	attainment float64
	p50, p99   sim.Time
	counts     autoscale.Counts
	stats      autoscale.Stats
}

// runAutoscaledFleet executes one trace under one scaling policy on the
// given fleet and returns the frontier point.
func runAutoscaledFleet(label string, devs []gpu.Config, prices []float64,
	policy string, spec workload.TrafficSpec, minR, initial int) (fleetRun, error) {
	w := sim.NewWorld()
	defer w.Close()
	opts := fleetOptions(autoscaleModels(), 32<<20)
	opts.Devices, opts.World = devs, w
	f, err := serving.NewFleet(opts)
	if err != nil {
		return fleetRun{}, err
	}
	pol, err := autoscale.New(policy)
	if err != nil {
		return fleetRun{}, err
	}
	s, err := autoscale.NewScaler(f.Env(), f.Cluster, autoscale.Config{
		Min: minR, Max: len(devs), Initial: initial,
		Interval: 5 * sim.Millisecond,
		Policy:   pol,
		SLO: telemetry.SLOConfig{
			Name: "jct@5ms", Deadline: autoscaleSLO, Target: 0.9,
			Short: sim.Millisecond, Long: 10 * sim.Millisecond,
		},
		DollarsPerHour: prices,
	})
	if err != nil {
		return fleetRun{}, err
	}
	front := autoscale.NewFront(s)
	reqs, err := workload.GenerateTraffic(spec)
	if err != nil {
		return fleetRun{}, err
	}
	f.Arrive(reqs, func(req core.Request) int { front.Submit(req); return 0 })
	s.Start()
	f.RunUntil(reqs[len(reqs)-1].At + 2*sim.Second)

	if !front.Counts().Conserved() || front.Outstanding() != 0 {
		return fleetRun{}, fmt.Errorf("autoscale: %s leaked requests: %+v (%d outstanding)",
			label, front.Counts(), front.Outstanding())
	}
	// Bill through quiescence — drain tails are paid for — but normalize
	// the daily extrapolation by the offered trace's duration.
	bill := s.QuiesceTime(spec.Duration)
	col := f.Collector().Succeeded()
	run := fleetRun{
		label:      label,
		costDay:    s.Cost(bill) * (24 * 3600 / spec.Duration.Seconds()),
		meanActive: s.MeanActive(bill),
		attainment: s.Attainment(),
		p50:        col.P50(),
		p99:        col.P99(),
		counts:     front.Counts(),
		stats:      s.ScaleStats(),
	}
	return run, nil
}

// calibrateReplicaRate measures one GPU type's sustainable throughput for
// the experiment's model mix with a short saturating open-loop run — the
// per-offer rate the fleet-mix optimizer consumes.
func calibrateReplicaRate(dev gpu.Config, jobs int) (float64, error) {
	opts := fleetOptions(autoscaleModels(), 32<<20)
	opts.Devices = []gpu.Config{dev}
	f, err := serving.NewFleet(opts)
	if err != nil {
		return 0, err
	}
	conn := f.Connect()
	spec := workload.TrafficSpec{
		Shape:          workload.ShapeConstant,
		Mix:            workload.Uniform("autonet-a", "autonet-b"),
		Sigma:          1.0,
		BaseRatePerSec: 50000, // far past saturation for every offer
		Jobs:           jobs,
		Clients:        10000,
		Seed:           7,
	}
	reqs, err := workload.GenerateTraffic(spec)
	if err != nil {
		return 0, err
	}
	f.Arrive(reqs, conn.Submit)
	f.RunUntil(reqs[len(reqs)-1].At + 4*sim.Second)
	return f.Collector().Succeeded().Throughput(), nil
}

// runAutoscale sweeps scaling policies over a compressed diurnal trace on a
// homogeneous T4 fleet (the SLO-vs-cost frontier), then calibrates a
// heterogeneous offer book (T4/P100/GTX1660) and runs the optimizer's
// cheapest mix under the same trace. The verdict the experiment enforces:
// at least one adaptive policy must dominate static peak provisioning —
// cheaper, with attainment within two points.
func runAutoscale(out io.Writer, d Detail) error {
	fleet, jobsCal := 4, 250
	spec := workload.TrafficSpec{
		Shape:          workload.ShapeDiurnal,
		Mix:            workload.Uniform("autonet-a", "autonet-b"),
		Sigma:          1.0,
		BaseRatePerSec: 20000,
		Amplitude:      0.8,
		Period:         100 * sim.Millisecond,
		Duration:       300 * sim.Millisecond,
		Clients:        2_000_000,
		Seed:           11,
	}
	if d == Full {
		fleet, jobsCal = 6, 800
		spec.BaseRatePerSec = 28000
		spec.Period = 300 * sim.Millisecond
		spec.Duration = 900 * sim.Millisecond
	}
	devs := make([]gpu.Config, fleet)
	prices := make([]float64, fleet)
	for i := range devs {
		devs[i] = gpu.TeslaT4()
		prices[i] = 0.53
	}
	fmt.Fprintf(out, "Extension — fleet autoscaling, diurnal %v period over %v, base %.0f req/s ±%.0f%%, %d clients:\n",
		spec.Period, spec.Duration, spec.BaseRatePerSec, spec.Amplitude*100, spec.Clients)
	fmt.Fprintf(out, "Fleet: up to %d×T4 at $0.53/hr; SLO: JCT ≤ %v; cost extrapolated to 24h of this shape.\n\n", fleet, autoscaleSLO)

	policies := []struct {
		label    string
		adaptive bool
		policy   string
		min, ini int
	}{
		{"static-min", false, "static", 1, 1},
		{"static-peak", false, "static", fleet, fleet},
		{"queue-depth", true, "queue-depth", 1, 3},
		{"step", true, "step", 1, 3},
		{"slo-burn", true, "slo-burn", 1, 3},
		{"predictive", true, "predictive", 1, 3},
	}
	fmt.Fprintf(out, "  %-12s %10s %10s %8s %10s %10s %6s %5s %5s %6s\n",
		"policy", "$/day", "mean-repl", "attain", "p50", "p99", "cold", "up", "down", "done")
	runs := make([]fleetRun, 0, len(policies))
	for _, p := range policies {
		run, err := runAutoscaledFleet(p.label, devs, prices, p.policy, spec, p.min, p.ini)
		if err != nil {
			return err
		}
		runs = append(runs, run)
		fmt.Fprintf(out, "  %-12s %10.2f %10.2f %7.1f%% %10v %10v %6d %5d %5d %6d\n",
			run.label, run.costDay, run.meanActive, run.attainment*100, run.p50, run.p99,
			run.stats.ColdStarts, run.stats.ScaleUps, run.stats.ScaleDowns, run.counts.Completed)
	}

	// The frontier verdict: an adaptive policy dominates static-peak when it
	// spends less and attains within two points.
	peak := runs[1]
	best := fleetRun{}
	for i, p := range policies {
		r := runs[i]
		if !p.adaptive {
			continue
		}
		if r.costDay < peak.costDay && r.attainment >= peak.attainment-0.02 {
			if best.label == "" || r.costDay < best.costDay {
				best = r
			}
		}
	}
	if best.label == "" {
		return fmt.Errorf("autoscale: no adaptive policy dominates static-peak ($%.2f/day at %.1f%%)",
			peak.costDay, peak.attainment*100)
	}
	savings := (1 - best.costDay/peak.costDay) * 100
	fmt.Fprintf(out, "\nFrontier: %s dominates static-peak — $%.2f/day vs $%.2f/day (%.0f%% cheaper) at %.1f%% vs %.1f%% attainment.\n",
		best.label, best.costDay, peak.costDay, savings, best.attainment*100, peak.attainment*100)
	fmt.Fprintf(out, "static-min is the other frontier end: cheapest fleet, attainment collapses in the peak (%.1f%%).\n",
		runs[0].attainment*100)

	// Heterogeneous fleets: calibrate each GPU type's sustainable rate for
	// this model mix, then let the optimizer pick the cheapest mix covering
	// the diurnal peak.
	fmt.Fprintf(out, "\nHeterogeneous offer book (calibrated on a saturating %d-job run):\n", jobsCal)
	offerSpecs := []struct {
		name  string
		dev   gpu.Config
		price float64
		max   int
	}{
		{"t4", gpu.TeslaT4(), 0.53, fleet},
		{"p100", gpu.TeslaP100(), 1.46, fleet},
		{"gtx1660", gpu.GTX1660Super(), 0.25, fleet + 2},
	}
	offers := make([]autoscale.Offer, 0, len(offerSpecs))
	fmt.Fprintf(out, "  %-8s %8s %12s %14s\n", "offer", "$/hr", "rate(req/s)", "$/(kreq/s)/hr")
	for _, o := range offerSpecs {
		rate, err := calibrateReplicaRate(o.dev, jobsCal)
		if err != nil {
			return err
		}
		offers = append(offers, autoscale.Offer{
			Name: o.name, Dev: o.dev, DollarsPerHour: o.price, RatePerSec: rate, Max: o.max,
		})
		fmt.Fprintf(out, "  %-8s %8.2f %12.0f %14.3f\n", o.name, o.price, rate, o.price/rate*1000)
	}
	peakRate := spec.BaseRatePerSec * (1 + spec.Amplitude)
	mix, err := autoscale.OptimizeMix(offers, peakRate, 1.15)
	if err != nil {
		return err
	}
	mixStr := ""
	for i, n := range mix.Counts {
		if n == 0 {
			continue
		}
		if mixStr != "" {
			mixStr += ","
		}
		mixStr += fmt.Sprintf("%s:%d", offers[i].Name, n)
	}
	fmt.Fprintf(out, "  optimizer, peak %.0f req/s ×1.15 headroom → {%s}: %.0f req/s at $%.2f/hr\n",
		peakRate, mixStr, mix.RatePerSec, mix.CostPerHour)

	mixDevs, mixPrices, _ := mix.Devices(offers)
	ini := 3
	if ini > len(mixDevs) {
		ini = len(mixDevs)
	}
	mixRun, err := runAutoscaledFleet("mix/"+best.label, mixDevs, mixPrices,
		"queue-depth", spec, 1, ini)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "  autoscaled {%s} under the same trace: $%.2f/day at %.1f%% attainment (all-T4 %s: $%.2f/day at %.1f%%).\n",
		mixStr, mixRun.costDay, mixRun.attainment*100, best.label, best.costDay, best.attainment*100)
	return nil
}
