package main

import (
	"fmt"
	"os"
	"strings"
	"time"

	"paella/internal/autoscale"
	"paella/internal/core"
	"paella/internal/serving"
	"paella/internal/sim"
	"paella/internal/telemetry"
	"paella/internal/workload"
)

// trafficSpec resolves the -traffic argument: a named preset ("diurnal",
// "spike", "constant") parameterized by the standard workload flags,
// "replay:<path>" for a recorded trace, or a path to a TrafficSpec JSON
// file for full control. An unset -traffic is the constant preset.
func (c *config) trafficSpec(mix workload.Mix) (workload.TrafficSpec, error) {
	arg := c.traffic
	if path, ok := strings.CutPrefix(arg, "replay:"); ok {
		return workload.TrafficSpec{Shape: workload.ShapeReplay, ReplayPath: path}, nil
	}
	if strings.HasSuffix(arg, ".json") {
		data, err := os.ReadFile(arg)
		if err != nil {
			return workload.TrafficSpec{}, err
		}
		spec, err := workload.ParseTrafficSpec(data)
		if err != nil {
			return workload.TrafficSpec{}, fmt.Errorf("%s: %w", arg, err)
		}
		return spec, nil
	}
	spec := workload.TrafficSpec{Mix: mix, Sigma: c.sigma, BaseRatePerSec: c.rate,
		Clients: c.clients, Seed: c.seed, Tenants: c.tenants}
	switch arg {
	case "", "constant":
		spec.Shape = workload.ShapeConstant
		spec.Jobs = c.jobs
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

// serveElastic runs the workload on an elastic fleet: -max-replicas
// replica shards (default -replicas), of which the autoscale control loop
// keeps between -min-replicas and -max-replicas active. Scale-up pays
// cold-start weight paging over PCIe; scale-down drains in-flight work
// before retiring the replica; every request ends in exactly one terminal
// outcome (the conservation ledger is printed and enforced).
func (c *config) serveElastic(opts serving.Options, reqs []workload.Request) outcome {
	pol, _ := autoscale.New(c.autoscale) // parse validated the name
	maxR := c.maxReplicas
	if maxR == 0 {
		maxR = c.replicas
	}
	initial := min(c.replicas, maxR)
	price := gpuPresets[c.device].price
	prices := make([]float64, maxR)
	for i := range prices {
		prices[i] = price
	}
	f := c.buildFleet(opts, maxR)
	defer f.World().Close()
	jct := slo("jct", telemetry.SLOJCT, sim.Time(c.slo), 0.9)
	jct.Short, jct.Long = sim.Millisecond, 10*sim.Millisecond
	s, err := autoscale.NewScaler(f.Env(), f.Cluster, autoscale.Config{
		Min: c.minReplicas, Max: maxR, Initial: initial,
		Interval:       sim.Time(c.scaleInterval),
		Policy:         pol,
		SLO:            jct,
		DollarsPerHour: prices,
	})
	if err != nil {
		fatal("%v", err)
	}
	front := autoscale.NewFront(s)
	f.Arrive(reqs, func(req core.Request) int { front.Submit(req); return 0 })
	s.Start()
	// Two virtual seconds past the last arrival cover any drain tail (the
	// conservation ledger below faults a run they do not).
	end := reqs[len(reqs)-1].At
	f.until = end + 2*sim.Second
	f.RunUntil(f.until)

	f.col = f.Collector()
	f.report = func() {
		counts, stats := front.Counts(), s.ScaleStats()
		desc := c.traffic
		if desc == "" {
			desc = fmt.Sprintf("constant %.0f req/s", c.rate)
		}
		fmt.Printf("system     : Paella autoscaled, policy=%s, replicas ∈ [%d,%d] (initial %d)\n",
			pol.Name(), c.minReplicas, maxR, initial)
		c.engineLine(fmt.Sprintf(", tick=%v", c.scaleInterval))
		fmt.Printf("workload   : traffic=%s, %d reqs over %v, %s\n",
			desc, len(reqs), time.Duration(end), strings.Join(c.names, ","))
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
		fmt.Printf("slo        : attainment=%.1f%% (JCT ≤ %v)\n", 100*s.Attainment(), c.slo)
		ok := f.col.Succeeded()
		fmt.Printf("latency    : p50=%v p99=%v mean=%v\n", ok.P50(), ok.P99(), ok.MeanJCT())
		c.perModelTable(ok)
	}
	return f.outcome
}
