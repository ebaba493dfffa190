package main

import (
	"fmt"
	"os"
	"slices"
	"time"

	"paella/internal/core"
	"paella/internal/fault"
	"paella/internal/gateway"
	"paella/internal/gpu"
	"paella/internal/metrics"
	"paella/internal/model"
	"paella/internal/serving"
	"paella/internal/sim"
	"paella/internal/telemetry"
	"paella/internal/trace"
	"paella/internal/vram"
	"paella/internal/workload"
)

// ttftSLO is the time-to-first-token objective -llm runs report against.
const ttftSLO = 200 * sim.Millisecond

// workload builds the serving options and the request trace of every
// mode: a -trace file, or the -traffic envelope (the constant preset when
// unset). The job count becomes the trace's length; -llm requests all
// name the one generative model.
func (c *config) workload() (serving.Options, []workload.Request) {
	if c.synth > 0 {
		c.zoo = model.SyntheticZoo(c.synth)
	}
	for _, m := range c.zoo {
		c.names = append(c.names, m.Name)
	}
	if c.llm {
		c.names = []string{"llm"}
	}
	opts := serving.DefaultOptions()
	opts.DevCfg = c.dev
	opts.Models = c.zoo
	// A non-positive -vram or -kv-block leaves the default: unconstrained
	// memory for the DNN systems, the device budget and 2 MiB KV pages
	// for -llm (parse refuses -kv-block without it).
	if c.vramMiB > 0 || c.kvBlockKiB > 0 {
		opts.VRAM = &vram.Config{CapacityBytes: max(c.vramMiB, 0) << 20, BlockBytes: max(c.kvBlockKiB, 0) << 10}
	}
	opts.MaxBatch, opts.BatchWindow = c.maxBatch, sim.Time(c.batchWindow)

	mix := workload.Uniform(c.names...)
	if c.zipf > 0 {
		mix = workload.ZipfMix(c.names, c.zipf)
	}
	var reqs []workload.Request
	var err error
	if c.traceIn != "" {
		reqs, err = readTrace(c.traceIn)
	} else if spec, serr := c.trafficSpec(mix); serr != nil {
		err = serr
	} else if spec.Shape == workload.ShapeReplay {
		reqs, err = readTrace(spec.ReplayPath)
	} else {
		reqs, err = workload.GenerateTraffic(spec)
	}
	if err != nil {
		fatal("%v", err)
	}
	c.jobs = len(reqs)
	for i, r := range reqs {
		if !slices.Contains(c.names, r.Model) {
			fatal("request %d of the trace names model %q, which -models does not load", i+1, r.Model)
		}
	}
	last := reqs[len(reqs)-1].At
	opts.MaxSimTime = last + 10*sim.Second

	switch {
	case c.faults != "":
		data, err := os.ReadFile(c.faults)
		if err != nil {
			fatal("%v", err)
		}
		if opts.Faults, err = fault.ParsePlan(data); err != nil {
			fatal("%v", err)
		}
	case c.chaos > 0:
		opts.Faults = fault.Synthesize(c.seed, c.chaos, last, opts.DevCfg.NumSMs)
	}
	return opts, reqs
}

// readTrace decodes the request trace stored at path, in either of
// workload.ReadTrace's forms.
func readTrace(path string) ([]workload.Request, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return workload.ReadTrace(f)
}

// serveSingle runs one Table 3 system on one GPU through serving.RunTrace.
func (c *config) serveSingle(opts serving.Options, reqs []workload.Request) outcome {
	if c.traceOut != "" || c.traceCSV != "" {
		opts.Trace = trace.New()
	}
	var out outcome
	if c.telOut != "" {
		opts.Telemetry = c.meter("dev0", true)
		out.meters = append(out.meters, opts.Telemetry)
	}
	sys, err := serving.NewSystem(c.system)
	if err != nil {
		fatal("%v", err)
	}
	col, err := serving.RunTrace(sys, reqs, opts)
	if err != nil {
		fatal("%v", err)
	}
	out.col, out.until, out.recs = col, opts.MaxSimTime, []*trace.Recorder{opts.Trace}
	out.report = func() {
		fmt.Printf("system     : %s\n", c.system)
		c.summary(col, col.Len())
		if tel := opts.Telemetry; tel != nil {
			if alerts := tel.Alerts(); len(alerts) > 0 {
				last := alerts[len(alerts)-1]
				fmt.Printf("slo        : %d burn-rate transitions, last %v firing=%v\n",
					len(alerts), time.Duration(last.At), last.Firing)
			}
		}
		if opts.Faults != nil {
			okCol := col.Succeeded()
			fmt.Printf("faults     : %d planned events (seed %d); ok=%d failed=%d lost=%d\n",
				len(opts.Faults.Events), opts.Faults.Seed, okCol.Len(), col.Failures(), c.jobs-col.Len())
			if inj, ok := sys.(interface{ Injector() *fault.Injector }); ok && inj.Injector() != nil {
				fmt.Printf("             %s\n", inj.Injector().Summary())
			}
			failureReasons(col)
			if okCol.Len() > 0 {
				fmt.Printf("latency(ok): p50=%v p99=%v mean=%v\n", okCol.P50(), okCol.P99(), okCol.MeanJCT())
			}
		}
		c.vramLine(col, "MiB")
		if ds, ok := sys.(interface{ Dispatcher() *core.Dispatcher }); ok {
			// Covers both -max-batch on a Paella run and the stock
			// Paella-batch system, which enables batching from inside
			// serving.
			if st := ds.Dispatcher().Stats(); st.BatchHolds > 0 || st.Batches > 0 {
				fmt.Printf("batching   : batches=%d batched-jobs=%d holds=%d mean-size=%.2f\n",
					st.Batches, st.BatchedJobs, st.BatchHolds, col.MeanBatchSize())
			}
		}
		c.perModelTable(col)
	}
	return out
}

// fleet is n gated-Paella replicas, one per shard of a conservative-window
// World, with routing, failover and terminal delivery on the control Env.
type fleet struct {
	*serving.Fleet
	outcome
}

// policy builds a fresh instance of the -gateway routing policy (parse
// validated the name).
func (c *config) policy() gateway.Policy {
	pol, _ := gateway.New(c.gateway)
	return pol
}

// observe attaches the -trace-out recorder and, on an elastic front, the
// -telemetry-out front meter to the fleet's control Env through opts, and
// a hook attaching both to each replica shard, the meter named replica<i>.
// out collects all of them, control Env first.
func (c *config) observe(opts *serving.Options, out *outcome) {
	if c.traceOut != "" {
		out.recs = []*trace.Recorder{trace.New()}
		opts.Trace = out.recs[0]
	}
	if c.telOut != "" && c.mode == modeElastic {
		out.meters = []*telemetry.Meter{c.meter("front", false)}
		opts.Telemetry = out.meters[0]
	}
	opts.ShardSetup = func(i int, env *sim.Env) {
		if c.traceOut != "" {
			out.recs = append(out.recs, trace.New())
			env.SetRecorder(out.recs[len(out.recs)-1])
		}
		if c.telOut != "" {
			out.meters = append(out.meters, c.meter(fmt.Sprintf("replica%d", i), true))
			env.SetMeter(out.meters[len(out.meters)-1])
		}
	}
}

// buildFleet places n replicas of the -gpu device on a new World with the
// -window barrier interval, observed, behind the -gateway policy.
func (c *config) buildFleet(opts serving.Options, n int) *fleet {
	opts.World = sim.NewWorld()
	opts.World.SetWindow(sim.Time(c.window))
	opts.Devices = make([]gpu.Config, n)
	for i := range opts.Devices {
		opts.Devices[i] = opts.DevCfg
	}
	opts.Gateway = c.policy
	f := &fleet{}
	c.observe(&opts, &f.outcome)
	var err error
	if f.Fleet, err = serving.NewFleet(opts); err != nil {
		fatal("%v", err)
	}
	return f
}

// admission returns the -admit-rate per-tenant token bucket, or nil.
func (c *config) admission() *gateway.Admission {
	if c.admitRate <= 0 {
		return nil
	}
	return gateway.NewAdmission(gateway.TenantLimit{RatePerSec: c.admitRate})
}

// serveFleet runs the workload on -replicas replicas behind the gateway,
// with gateway admission and fault injection when asked for.
func (c *config) serveFleet(opts serving.Options, reqs []workload.Request) outcome {
	f := c.buildFleet(opts, c.replicas)
	defer f.World().Close()
	f.SetAdmission(c.admission())
	conn := f.Connect()
	completed, failed := 0, 0
	conn.OnComplete = func(uint64) { completed++ }
	conn.OnFailed = func(uint64, error) { failed++ }
	if opts.Faults != nil {
		inj, err := fault.NewInjector(f.Env(), opts.Faults, fault.Targets{
			Device: f.Dispatcher(0).Device(), Dispatcher: f.Dispatcher(0), Cluster: f.Cluster})
		if err != nil {
			fatal("%v", err)
		}
		inj.Install()
	}
	f.Arrive(reqs, conn.Submit)
	f.RunUntil(opts.MaxSimTime)

	col := f.Collector()
	f.col, f.until = col, opts.MaxSimTime
	f.report = func() {
		fmt.Printf("system     : Paella ×%d replicas, balancer=%s\n", c.replicas, c.gateway)
		c.engineLine("")
		c.admissionLines(f.Admission())
		c.summary(col, completed)
		if opts.Faults != nil {
			fmt.Printf("faults     : %d planned events (seed %d); ok=%d failed=%d lost=%d (crashed=%d live=%d)\n",
				len(opts.Faults.Events), opts.Faults.Seed, completed, failed,
				c.jobs-completed-failed, f.Crashes(), f.LiveReplicas())
			failureReasons(col)
		}
		c.vramLine(col, "MiB/replica")
		c.perModelTable(col)
	}
	return f.outcome
}

// serveLLM runs a generative workload on a serving.Deployment, the
// prefill/decode front of internal/cluster: lognormal token lengths, a
// paged KV-cache per engine, continuous or launch-time decode batching.
// -pd-split "P:D" splits prefill and decode into separate pools, charging
// the KV handoff over the interconnect; otherwise -replicas colocated
// engines run both phases. The front and every engine share one Env.
func (c *config) serveLLM(opts serving.Options, reqs []workload.Request) outcome {
	toks := workload.DefaultTokenSpec(c.seed)
	if c.maxTokens > 0 {
		toks.MaxOutput = c.maxTokens
	}
	opts.LLM = &serving.LLMOptions{Tokens: toks, Static: c.llmStatic,
		Prefills: c.prefills, Decodes: c.decodes}
	opts.Gateway = c.policy
	var out outcome
	out.until = reqs[len(reqs)-1].At + 30*sim.Second
	if c.telOut != "" {
		// One meter records the front and every engine.
		out.meters = []*telemetry.Meter{c.meter("llm", true)}
		opts.Telemetry = out.meters[0]
	}
	pd, err := serving.NewDeployment(opts)
	if err != nil {
		fatal("%v", err)
	}

	pd.SetAdmission(c.admission())
	completed, failed := 0, 0
	pd.OnFinish = func(rec metrics.JobRecord) {
		if rec.Failed {
			failed++
		} else {
			completed++
		}
	}
	pd.Arrive(reqs)
	pd.RunUntil(out.until)

	col := pd.Collector()
	out.col = col
	out.report = func() {
		batching, deploy := "continuous", fmt.Sprintf("colocated ×%d", c.prefills)
		if c.llmStatic {
			batching = "static"
		}
		if c.decodes > 0 {
			deploy = fmt.Sprintf("disaggregated %dP:%dD", c.prefills, c.decodes)
		}
		ttfts, tpots := col.TTFTs(), col.TPOTs()
		transfers, kvBytes := pd.Transfers()
		fmt.Printf("system     : Paella-LLM (%s batching), %s\n", batching, deploy)
		fmt.Printf("gateway    : policy=%s\n", c.gateway)
		c.admissionLines(pd.Admission())
		fmt.Printf("workload   : %d reqs, %.0f req/s offered, σ=%.1f, %d clients, prompt~LN(%.0f), output~LN(%.0f)≤%d tok\n",
			c.jobs, c.rate, c.sigma, c.clients, toks.PromptMean, toks.OutputMean, toks.MaxOutput)
		fmt.Printf("completed  : %d (%.1f%%) failed=%d lost=%d\n",
			completed, 100*float64(completed)/float64(c.jobs), failed, c.jobs-completed-failed)
		fmt.Printf("ttft       : p50=%v p99=%v goodput(<200ms)=%.1f req/s\n",
			metrics.Percentile(ttfts, 50), metrics.Percentile(ttfts, 99), col.TTFTGoodput(ttftSLO))
		fmt.Printf("tpot       : p50=%v p99=%v\n",
			metrics.Percentile(tpots, 50), metrics.Percentile(tpots, 99))
		fmt.Printf("tokens     : %.1f tok/s\n", col.TokensPerSec())
		fmt.Printf("kv         : peak-pages=%d preemptions=%d transfers=%d (%.1f MiB)\n",
			pd.KVPeakPages(), pd.Preemptions(), transfers, float64(kvBytes)/(1<<20))
		fmt.Printf("anatomy    : %s\n", telemetry.AnatomyStatsLine(col))
	}
	return out
}
