// Autoscaling front for paella-sim: -autoscale runs the cluster engine
// under an internal/autoscale control loop — replicas park, warm (paying
// cold-start weight paging), drain, and retire while an open-loop traffic
// envelope (-traffic) plays against the fleet.
//
// Example — diurnal traffic against an elastic pool of one to four T4s:
//
//	paella-sim -autoscale queue-depth -traffic diurnal -rate 20000 \
//	           -replicas 2 -min-replicas 1 -max-replicas 4 \
//	           -models synth:2 -vram 32 -slo 5ms
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"paella/internal/autoscale"
	"paella/internal/cluster"
	"paella/internal/core"
	"paella/internal/gpu"
	"paella/internal/sched"
	"paella/internal/serving"
	"paella/internal/sim"
	"paella/internal/telemetry"
	"paella/internal/workload"
)

// trafficSpecFromFlag resolves the -traffic argument: a named preset
// ("diurnal", "spike", "constant") parameterized by the standard workload
// flags, "replay:<path>" for an NDJSON trace, or a path to a TrafficSpec
// JSON file for full control.
func trafficSpecFromFlag(arg string, mix workload.Mix, sigma, rate float64,
	jobs, clients int, seed int64, tenants int) (workload.TrafficSpec, error) {
	if path, ok := strings.CutPrefix(arg, "replay:"); ok {
		return workload.TrafficSpec{Shape: workload.ShapeReplay, ReplayPath: path}, nil
	}
	if strings.HasSuffix(arg, ".json") {
		data, err := os.ReadFile(arg)
		if err != nil {
			return workload.TrafficSpec{}, err
		}
		var spec workload.TrafficSpec
		if err := json.Unmarshal(data, &spec); err != nil {
			return workload.TrafficSpec{}, fmt.Errorf("%s: %w", arg, err)
		}
		return spec, nil
	}
	spec := workload.TrafficSpec{
		Mix:            mix,
		Sigma:          sigma,
		BaseRatePerSec: rate,
		Clients:        clients,
		Seed:           seed,
		Tenants:        tenants,
	}
	switch arg {
	case "constant":
		spec.Shape = workload.ShapeConstant
		spec.Jobs = jobs
	case "diurnal":
		// Three compressed day/night cycles; -jobs is ignored (the
		// envelope's duration bounds the trace). Use a spec file to
		// change the period or amplitude.
		spec.Shape = workload.ShapeDiurnal
		spec.Amplitude = 0.8
		spec.Period = 100 * sim.Millisecond
		spec.Duration = 300 * sim.Millisecond
	case "spike":
		spec.Shape = workload.ShapeSpike
		spec.SpikeFactor = 8
		spec.SpikeAt = 60 * sim.Millisecond
		spec.SpikeDuration = 40 * sim.Millisecond
		spec.Duration = 180 * sim.Millisecond
	default:
		return workload.TrafficSpec{}, fmt.Errorf(
			"unknown -traffic %q (want constant | diurnal | spike | replay:<path> | <spec>.json)", arg)
	}
	return spec, nil
}

// presetPrice returns the hourly price paella-sim bills for a GPU preset —
// the same offer book the autoscale experiment's mix optimizer uses.
func presetPrice(device string) float64 {
	switch device {
	case "p100":
		return 1.46
	case "gtx1660s":
		return 0.25
	default: // t4
		return 0.53
	}
}

// runAutoscaled executes the workload on an elastic cluster: a fleet of
// maxR replica shards, of which the autoscale control loop keeps between
// minR and maxR active. Scale-up pays cold-start weight paging over PCIe;
// scale-down drains in-flight work before retiring the replica; every
// request ends in exactly one terminal outcome (the conservation ledger is
// printed and enforced).
func runAutoscaled(opts serving.Options, reqs []workload.Request, policyName, gwName string,
	minR, maxR, initial int, parallel bool, window sim.Time, scaleInterval sim.Time,
	trafficDesc string, price float64, names []string, asJSON, perMod bool,
	telOut string, telWin, sloDeadline sim.Time) {
	pol, err := autoscale.New(policyName)
	if err != nil {
		fatal("%v", err)
	}
	w := sim.NewWorld()
	w.SetWindow(window)
	w.SetParallel(parallel)
	defer w.Close()

	var meters []*telemetry.Meter
	if telOut != "" {
		ctrlMt := telemetry.NewMeter("front", telWin)
		w.Ctrl().SetMeter(ctrlMt)
		meters = append(meters, ctrlMt)
	}
	devs := make([]gpu.Config, maxR)
	prices := make([]float64, maxR)
	for i := range devs {
		devs[i] = opts.DevCfg
		prices[i] = price
	}
	c, err := cluster.NewWorldWithConfig(w, devs, func(int, gpu.Config) core.Config {
		cfg := core.DefaultConfig(sched.NewPaella(serving.DefaultFairnessThreshold))
		cfg.VRAM = opts.VRAM
		cfg.MaxBatch = opts.MaxBatch
		cfg.BatchWindow = opts.BatchWindow
		return cfg
	}, newPolicy(gwName), func(i int, shard *sim.Env) {
		if telOut != "" {
			mt := telemetry.NewMeter(fmt.Sprintf("replica%d", i), telWin)
			mt.SLO(telemetry.SLOConfig{
				Name:     fmt.Sprintf("goodput@%v", time.Duration(sloDeadline)),
				Deadline: sloDeadline,
				Target:   0.99,
			})
			shard.SetMeter(mt)
			meters = append(meters, mt)
		}
	})
	if err != nil {
		fatal("%v", err)
	}
	for _, m := range opts.Models {
		if err := c.RegisterModel(m, opts.CompilerCfg, opts.ProfileRuns); err != nil {
			fatal("%v", err)
		}
	}
	s, err := autoscale.NewScaler(w.Ctrl(), c, autoscale.Config{
		Min: minR, Max: maxR, Initial: initial,
		Interval: scaleInterval,
		Policy:   pol,
		SLO: telemetry.SLOConfig{
			Name:     fmt.Sprintf("jct@%v", time.Duration(sloDeadline)),
			Deadline: sloDeadline,
			Target:   0.9,
			Short:    sim.Millisecond,
			Long:     10 * sim.Millisecond,
		},
		DollarsPerHour: prices,
	})
	if err != nil {
		fatal("%v", err)
	}
	front := autoscale.NewFront(s)
	end := sim.Time(0)
	for i, r := range reqs {
		id, req := uint64(i+1), r
		w.Ctrl().At(r.At, func() {
			front.Submit(core.Request{ID: id, Model: req.Model, Client: req.Client,
				Tenant: req.Tenant, Submit: w.Ctrl().Now()})
		})
		end = r.At
	}
	s.Start()
	// Two virtual seconds past the last arrival cover any drain tail (the
	// conservation ledger below faults a run they do not).
	until := end + 2*sim.Second
	w.RunUntil(until)

	col := c.Collector()
	if telOut != "" {
		writeTelemetry(telOut, until, col, meters...)
	}
	if asJSON {
		if err := col.WriteJSON(os.Stdout); err != nil {
			fatal("%v", err)
		}
		return
	}
	counts, stats := front.Counts(), s.ScaleStats()
	mode := "serial"
	if parallel {
		mode = "parallel"
	}
	fmt.Printf("system     : Paella autoscaled, policy=%s, replicas ∈ [%d,%d] (initial %d)\n",
		pol.Name(), minR, maxR, initial)
	fmt.Printf("engine     : conservative-window %s, Δ=%v, tick=%v\n",
		mode, time.Duration(window), time.Duration(scaleInterval))
	fmt.Printf("workload   : traffic=%s, %d reqs over %v, %s\n",
		trafficDesc, len(reqs), time.Duration(end), strings.Join(names, ","))
	conserved := "conserved"
	if !counts.Conserved() || front.Outstanding() != 0 {
		conserved = fmt.Sprintf("LEAKED (%d outstanding)", front.Outstanding())
	}
	fmt.Printf("requests   : completed=%d shed=%d failed=%d of %d (%s)\n",
		counts.Completed, counts.Shed, counts.Failed, counts.Submitted, conserved)
	fmt.Printf("scaling    : ups=%d reactivations=%d downs=%d parks=%d target-end=%d\n",
		stats.ScaleUps, stats.Reactivations, stats.ScaleDowns, stats.Parks, s.Target())
	fmt.Printf("cold-start : count=%d paged=%.1fMiB spend=%v\n",
		stats.ColdStarts, float64(stats.ColdStartBytes)/(1<<20), time.Duration(stats.ColdStartNs))
	bill := s.QuiesceTime(end)
	fmt.Printf("billing    : $%.6f at $%.2f/hr/replica through %v; replica-seconds=%.6f mean-active=%.2f\n",
		s.Cost(bill), price, time.Duration(bill), s.ReplicaSeconds(bill), s.MeanActive(bill))
	fmt.Printf("slo        : attainment=%.1f%% (JCT ≤ %v)\n",
		100*s.Attainment(), time.Duration(sloDeadline))
	ok := col.Succeeded()
	fmt.Printf("latency    : p50=%v p99=%v mean=%v\n", ok.P50(), ok.P99(), ok.MeanJCT())
	if perMod {
		for _, name := range names {
			sub := ok.FilterModel(name)
			if sub.Len() == 0 {
				continue
			}
			fmt.Printf("  %-16s n=%-5d p50=%-12v p99=%-12v mean=%v\n",
				name, sub.Len(), sub.P50(), sub.P99(), sub.MeanJCT())
		}
	}
}
