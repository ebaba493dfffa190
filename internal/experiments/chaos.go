package experiments

import (
	"fmt"
	"io"

	"paella/internal/core"
	"paella/internal/fault"
	"paella/internal/gpu"
	"paella/internal/model"
	"paella/internal/serving"
	"paella/internal/sim"
	"paella/internal/workload"
)

func init() {
	register(Experiment{
		Name:  "chaos",
		Title: "Extension: fault injection — goodput/p99 degradation and zero-loss recovery under faults",
		Run:   runChaos,
	})
}

// chaosDeadline is the goodput SLO: a request that completes within this
// JCT counts as good.
const chaosDeadline = 25 * sim.Millisecond

// runChaos sweeps fault intensity against goodput and tail latency.
//
// Part A runs one T4 under fault.Synthesize plans of increasing intensity
// (SM retirements, a PCIe brownout window, percent-level notification
// drop/duplication) with the dispatcher's recovery machinery armed. The
// claim under test is graceful degradation: goodput falls and p99 rises
// with intensity, but conservation holds — every submitted request ends in
// exactly one completion or one typed error, never silence.
//
// Part B crashes one replica of a 2×T4 cluster mid-run: requests pending
// on the dead replica fail over to the survivor, and the accounting at the
// cluster connection (completions + typed failures = submissions) shows
// none were lost.
func runChaos(w io.Writer, d Detail) error {
	intensities := []float64{0, 0.25, 0.5, 1.0}
	jobs := 1200
	if d == Quick {
		intensities = []float64{0, 0.5}
		jobs = 300
	}
	const seed = 42

	fmt.Fprintln(w, "Extension — deterministic fault injection (internal/fault)")
	fmt.Fprintf(w, "\nPart A: fault-intensity sweep, one T4, 300 req/s, seed %d:\n", seed)
	fmt.Fprintf(w, "  %9s %6s %6s %6s %6s %14s %12s %8s %8s %8s\n",
		"intensity", "n", "ok", "fail", "lost", "goodput(req/s)", "p99(ok)", "timeout", "redisp", "stale")
	models := model.Table2Models()[:4]
	names := make([]string, len(models))
	for i, m := range models {
		names[i] = m.Name
	}
	trace := workload.MustGenerate(workload.Spec{
		Mix: workload.Uniform(names...), Sigma: 1.5,
		RatePerSec: 300, Jobs: jobs, Clients: 4, Seed: seed,
	})
	horizon := trace[len(trace)-1].At
	for _, intensity := range intensities {
		sys, err := serving.NewSystem("Paella")
		if err != nil {
			return err
		}
		opts := serving.DefaultOptions()
		opts.Models = models
		opts.Faults = fault.Synthesize(seed, intensity, horizon, opts.DevCfg.NumSMs)
		opts.MaxSimTime = horizon + 30*sim.Second
		col, err := serving.RunTrace(sys, trace, opts)
		if err != nil {
			return err
		}
		okCol := col.Succeeded()
		lost := len(trace) - col.Len()
		var st core.Stats
		if ds, okd := sys.(interface{ Dispatcher() *core.Dispatcher }); okd {
			st = ds.Dispatcher().Stats()
		}
		fmt.Fprintf(w, "  %9.2f %6d %6d %6d %6d %14.1f %12v %8d %8d %8d\n",
			intensity, col.Len(), okCol.Len(), col.Failures(), lost,
			okCol.Goodput(chaosDeadline), okCol.P99(),
			st.KernelTimeouts, st.KernelRetries, st.StaleNotifs)
		if lost != 0 {
			return fmt.Errorf("chaos: %d jobs lost at intensity %.2f — conservation violated", lost, intensity)
		}
	}

	fmt.Fprintln(w, "\nPart B: replica crash on a 2×T4 cluster, failover to the survivor:")
	fopts := fleetOptions(models, 0)
	fopts.Devices = []gpu.Config{gpu.TeslaT4(), gpu.TeslaT4()}
	f, err := serving.NewFleet(fopts)
	if err != nil {
		return err
	}
	conn := f.Connect()
	completed, failed := 0, 0
	conn.OnComplete = func(uint64) { completed++ }
	conn.OnFailed = func(uint64, error) { failed++ }
	ctrace := workload.MustGenerate(workload.Spec{
		Mix: workload.Uniform(names...), Sigma: 1.5,
		RatePerSec: 400, Jobs: jobs, Clients: 1, Seed: seed,
	})
	f.Arrive(ctrace, conn.Submit)
	crashAt := ctrace[len(ctrace)-1].At / 2
	f.Env().At(crashAt, func() { f.Crash(0) })
	f.RunUntil(ctrace[len(ctrace)-1].At + 30*sim.Second)
	fmt.Fprintf(w, "  crash at %v: %d submitted, %d completed, %d typed failures, %d live replicas\n",
		crashAt, len(ctrace), completed, failed, f.LiveReplicas())
	// Every arrival is retried until the fleet takes it, so each one must
	// end in a completion or a typed failure.
	if completed+failed != len(ctrace) {
		return fmt.Errorf("chaos: cluster lost %d jobs after crash", len(ctrace)-completed-failed)
	}

	fmt.Fprintln(w, "\nExpected: Part A — goodput falls and p99(ok) rises monotonically-ish")
	fmt.Fprintln(w, "with intensity (retired SMs shrink capacity, the brownout stretches")
	fmt.Fprintln(w, "copies, lost notifications cost watchdog round trips), but the lost")
	fmt.Fprintln(w, "column stays zero: the watchdog re-dispatches or fails jobs with")
	fmt.Fprintln(w, "typed errors instead of hanging. Part B — the survivor absorbs the")
	fmt.Fprintln(w, "crashed replica's pending work; completions plus typed failures")
	fmt.Fprintln(w, "account for every submission.")
	return nil
}
