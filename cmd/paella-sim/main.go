// Command paella-sim runs one serving system against one workload and
// prints throughput/latency statistics — the interactive counterpart to
// the fixed experiment sweeps of paella-bench.
//
// Example:
//
//	paella-sim -system Paella -models resnet18,inceptionv3 -rate 300 \
//	           -jobs 1000 -sigma 2 -clients 8
//
// Many-models serving under a device-memory budget (internal/vram):
//
//	paella-sim -system Paella -models synth:16 -vram 256 -zipf 1.1 \
//	           -rate 250 -jobs 2000
//
// A multi-GPU cluster on the conservative-window engine (internal/cluster),
// with replica shards executing in parallel:
//
//	paella-sim -replicas 8 -parallel -gateway least-loaded \
//	           -rate 2000 -jobs 20000 -models synth:8 -zipf 1.1
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"paella/internal/autoscale"
	"paella/internal/cluster"
	"paella/internal/core"
	"paella/internal/fault"
	"paella/internal/gateway"
	"paella/internal/gpu"
	"paella/internal/llm"
	"paella/internal/metrics"
	"paella/internal/model"
	"paella/internal/sched"
	"paella/internal/serving"
	"paella/internal/sim"
	"paella/internal/telemetry"
	"paella/internal/trace"
	"paella/internal/vram"
	"paella/internal/workload"
)

func main() {
	var (
		system  = flag.String("system", "Paella", "serving system (see Table 3; 'list' to enumerate)")
		models  = flag.String("models", "all", "comma-separated zoo models, 'all', or 'synth:N' for an N-model synthetic zoo")
		rate    = flag.Float64("rate", 200, "offered load (req/s)")
		jobs    = flag.Int("jobs", 500, "number of requests")
		sigma   = flag.Float64("sigma", 2, "lognormal inter-arrival shape")
		clients = flag.Int("clients", 8, "number of clients")
		seed    = flag.Int64("seed", 1, "workload seed")
		device  = flag.String("gpu", "t4", "gpu preset: t4 | p100 | gtx1660s")
		perMod  = flag.Bool("per-model", false, "print per-model percentiles")
		asJSON  = flag.Bool("json", false, "dump per-request records as JSON")
		traceIn = flag.String("trace", "", "replay a JSON trace file instead of generating one")
		vramMiB = flag.Int64("vram", 0, "device-memory budget for model weights in MiB (0 = unconstrained)")
		zipf    = flag.Float64("zipf", 0, "zipfian model-popularity exponent (0 = uniform mix)")
		trcOut  = flag.String("trace-out", "", "write a Chrome trace-event JSON file (open in ui.perfetto.dev)")
		trcCSV  = flag.String("trace-csv", "", "write the counter time-series as CSV")
		faults  = flag.String("faults", "", "JSON fault plan (internal/fault); arms the dispatcher's recovery machinery")
		chaosI  = flag.Float64("chaos", 0, "synthesize a fault plan at this intensity in (0,1] instead of -faults")
		nrepl   = flag.Int("replicas", 1, "number of cluster replicas (GPUs); >1 runs the conservative-window cluster engine")
		par     = flag.Bool("parallel", false, "execute replica shards on goroutines (bit-identical to serial); requires -replicas > 1")
		window  = flag.Duration("window", 50*time.Microsecond, "conservative synchronization window (with -replicas > 1)")
		gwName  = flag.String("gateway", "least-loaded", "gateway routing policy from the internal/gateway registry for -replicas > 1, -llm, and -autoscale ('list' to enumerate)")
		tenants = flag.Int("tenants", 0, "tag requests with N tenants drawn uniformly (0 = untenanted)")
		admitPS = flag.Float64("admit-rate", 0, "per-tenant admission rate in req/s (gateway token bucket; 0 = no admission control)")
		maxBat  = flag.Int("max-batch", 0, "dynamic-batching width cap for the gated Paella dispatcher (≤1 = off)")
		batWin  = flag.Duration("batch-window", 0, "max batch-formation hold for a lone ready kernel (with -max-batch > 1)")
		llmOn   = flag.Bool("llm", false, "generative (LLM) serving: autoregressive jobs with a paged KV-cache and continuous batching")
		llmStat = flag.Bool("llm-static", false, "use launch-time (static) decode batching instead of continuous (with -llm)")
		maxTok  = flag.Int("max-tokens", 0, "cap sampled output-token counts (with -llm; 0 = distribution default)")
		kvBlock = flag.Int64("kv-block", 0, "KV-cache page size in KiB (with -llm; 0 = 2048)")
		pdStr   = flag.String("pd-split", "", "disaggregate prefill/decode as \"P:D\" replica pools (with -llm; empty = colocated -replicas engines)")
		asName  = flag.String("autoscale", "", "autoscaling policy from the internal/autoscale registry ('list' to enumerate); elastic cluster engine")
		traffic = flag.String("traffic", "", "open-loop traffic envelope: constant | diurnal | spike | replay:<ndjson> | <spec>.json (overrides the flat generator)")
		minRepl = flag.Int("min-replicas", 1, "autoscaler floor on the active pool (with -autoscale)")
		maxRepl = flag.Int("max-replicas", 0, "autoscaler ceiling / provisioned fleet size (with -autoscale; 0 = -replicas)")
		scaleI  = flag.Duration("scale-interval", 5*time.Millisecond, "autoscaler control-loop tick in virtual time (with -autoscale)")
		telOut  = flag.String("telemetry-out", "", "write the windowed telemetry export (JSON, or CSV when the path ends in .csv)")
		telWin  = flag.Duration("telemetry-window", 10*time.Millisecond, "telemetry aggregation window (virtual time)")
		sloDur  = flag.Duration("slo", 50*time.Millisecond, "latency SLO deadline for the burn-rate monitor (JCT; TTFT@200ms is added on -llm)")
	)
	flag.Parse()

	if *gwName == "list" {
		for _, name := range gateway.Names() {
			fmt.Printf("  %s\n", name)
		}
		return
	}
	if _, err := gateway.New(*gwName); err != nil {
		fatal("%v", err)
	}
	if *asName == "list" {
		for _, name := range autoscale.Names() {
			fmt.Printf("  %s\n", name)
		}
		return
	}
	if *system == "list" {
		for _, row := range serving.Table3() {
			fmt.Printf("  %-16s dispatch=%-7s sched=%s\n", row.Name, row.Dispatch, row.Scheduler)
		}
		return
	}

	opts := serving.DefaultOptions()
	switch *device {
	case "t4":
	case "p100":
		opts.DevCfg = gpu.TeslaP100()
	case "gtx1660s":
		opts.DevCfg = gpu.GTX1660Super()
	default:
		fatal("unknown gpu preset %q", *device)
	}
	if *llmOn {
		runLLM(opts.DevCfg, *jobs, *rate, *sigma, *clients, *seed, *vramMiB, *maxBat,
			*maxTok, *kvBlock, *llmStat, *pdStr, *nrepl, *par,
			sim.Time((*window).Nanoseconds()), *asJSON,
			*telOut, sim.Time((*telWin).Nanoseconds()), sim.Time((*sloDur).Nanoseconds()),
			*gwName, *tenants, *admitPS)
		return
	}
	if *llmStat || *maxTok > 0 || *kvBlock > 0 || *pdStr != "" {
		fatal("-llm-static, -max-tokens, -kv-block, and -pd-split require -llm")
	}
	if n, ok := strings.CutPrefix(*models, "synth:"); ok {
		count, err := strconv.Atoi(n)
		if err != nil || count <= 0 {
			fatal("bad synthetic zoo size %q", n)
		}
		opts.Models = model.SyntheticZoo(count)
	} else if *models != "all" {
		opts.Models = nil
		for _, name := range strings.Split(*models, ",") {
			m, err := model.ByName(strings.TrimSpace(name))
			if err != nil {
				fatal("%v", err)
			}
			opts.Models = append(opts.Models, m)
		}
	}
	if *vramMiB > 0 {
		opts.VRAM = &vram.Config{CapacityBytes: *vramMiB << 20}
	}
	opts.MaxBatch = *maxBat
	opts.BatchWindow = sim.Time((*batWin).Nanoseconds())
	names := make([]string, len(opts.Models))
	for i, m := range opts.Models {
		names[i] = m.Name
	}

	mix := workload.Uniform(names...)
	if *zipf > 0 {
		mix = workload.ZipfMix(names, *zipf)
	}
	var reqs []workload.Request
	var err error
	switch {
	case *traceIn != "" && *traffic != "":
		fatal("-trace and -traffic are mutually exclusive")
	case *traceIn != "":
		f, ferr := os.Open(*traceIn)
		if ferr != nil {
			fatal("%v", ferr)
		}
		reqs, err = workload.ReadJSON(f)
		f.Close()
		if err == nil && len(reqs) > 0 {
			*jobs = len(reqs)
		}
	case *traffic != "":
		spec, serr := trafficSpecFromFlag(*traffic, mix, *sigma, *rate, *jobs, *clients, *seed, *tenants)
		if serr != nil {
			fatal("%v", serr)
		}
		if spec.Shape == workload.ShapeReplay {
			f, ferr := os.Open(spec.ReplayPath)
			if ferr != nil {
				fatal("%v", ferr)
			}
			reqs, err = workload.ReadNDJSON(f)
			f.Close()
		} else {
			reqs, err = workload.GenerateTraffic(spec)
		}
		if err == nil && len(reqs) > 0 {
			*jobs = len(reqs)
		}
	default:
		reqs, err = workload.Generate(workload.Spec{
			Mix:        mix,
			Sigma:      *sigma,
			RatePerSec: *rate,
			Jobs:       *jobs,
			Clients:    *clients,
			Seed:       *seed,
			Tenants:    *tenants,
		})
	}
	if err != nil {
		fatal("%v", err)
	}
	if len(reqs) == 0 {
		fatal("empty trace")
	}
	opts.MaxSimTime = reqs[len(reqs)-1].At + 10*sim.Second

	switch {
	case *faults != "" && *chaosI > 0:
		fatal("-faults and -chaos are mutually exclusive")
	case *faults != "":
		data, ferr := os.ReadFile(*faults)
		if ferr != nil {
			fatal("%v", ferr)
		}
		opts.Faults, err = fault.ParsePlan(data)
		if err != nil {
			fatal("%v", err)
		}
	case *chaosI > 0:
		opts.Faults = fault.Synthesize(*seed, *chaosI, reqs[len(reqs)-1].At, opts.DevCfg.NumSMs)
	}

	if *asName != "" {
		if *system != "Paella" {
			fatal("-autoscale runs the gated Paella dispatcher per replica; -system must be Paella")
		}
		if opts.Faults != nil || *admitPS > 0 || *trcOut != "" || *trcCSV != "" {
			fatal("-autoscale does not compose with -faults/-chaos, -admit-rate, or trace output")
		}
		maxR := *maxRepl
		if maxR == 0 {
			maxR = *nrepl
		}
		initial := *nrepl
		if initial > maxR {
			initial = maxR
		}
		desc := *traffic
		if desc == "" {
			desc = fmt.Sprintf("constant %.0f req/s", *rate)
		}
		runAutoscaled(opts, reqs, *asName, *gwName, *minRepl, maxR, initial, *par,
			sim.Time((*window).Nanoseconds()), sim.Time((*scaleI).Nanoseconds()),
			desc, presetPrice(*device), names, *asJSON, *perMod,
			*telOut, sim.Time((*telWin).Nanoseconds()), sim.Time((*sloDur).Nanoseconds()))
		return
	}
	if *minRepl != 1 || *maxRepl != 0 {
		fatal("-min-replicas and -max-replicas require -autoscale")
	}
	if *nrepl > 1 {
		if *system != "Paella" {
			fatal("-replicas > 1 runs the gated Paella dispatcher per replica; -system must be Paella")
		}
		if *trcCSV != "" {
			fatal("-trace-csv is not supported with -replicas > 1 (use -trace-out for the merged trace)")
		}
		runCluster(opts, reqs, *nrepl, *par, sim.Time((*window).Nanoseconds()), *gwName,
			*jobs, *rate, *sigma, *clients, names, *asJSON, *perMod, *trcOut, *vramMiB,
			*telOut, sim.Time((*telWin).Nanoseconds()), sim.Time((*sloDur).Nanoseconds()),
			*admitPS)
		return
	}
	gwSet := false
	flag.Visit(func(f *flag.Flag) { gwSet = gwSet || f.Name == "gateway" })
	if gwSet || *admitPS > 0 {
		fatal("-gateway and -admit-rate front the cluster engine: use -replicas > 1 or -llm")
	}
	if *par {
		fatal("-parallel requires -replicas > 1")
	}

	if *trcOut != "" || *trcCSV != "" {
		opts.Trace = trace.New()
	}
	if *telOut != "" {
		opts.Telemetry = telemetry.NewMeter("dev0", sim.Time((*telWin).Nanoseconds()))
		opts.Telemetry.SLO(telemetry.SLOConfig{
			Name:     fmt.Sprintf("goodput@%v", *sloDur),
			Deadline: sim.Time((*sloDur).Nanoseconds()),
			Target:   0.99,
		})
	}
	sys, err := serving.NewSystem(*system)
	if err != nil {
		fatal("%v", err)
	}
	col, err := serving.RunTrace(sys, reqs, opts)
	if err != nil {
		fatal("%v", err)
	}
	if *trcOut != "" {
		writeTrace(*trcOut, opts.Trace.WriteChromeTrace)
	}
	if *trcCSV != "" {
		writeTrace(*trcCSV, opts.Trace.WriteCSV)
	}
	if *telOut != "" {
		writeTelemetry(*telOut, opts.MaxSimTime, col, opts.Telemetry)
	}

	if *asJSON {
		if err := col.WriteJSON(os.Stdout); err != nil {
			fatal("%v", err)
		}
		return
	}
	fmt.Printf("system     : %s\n", *system)
	fmt.Printf("workload   : %d jobs, %.0f req/s offered, σ=%.1f, %d clients, models=%s\n",
		*jobs, *rate, *sigma, *clients, strings.Join(names, ","))
	fmt.Printf("completed  : %d (%.1f%%)\n", col.Len(), 100*float64(col.Len())/float64(*jobs))
	fmt.Printf("throughput : %.1f req/s\n", col.Throughput())
	fmt.Printf("latency    : p50=%v p99=%v mean=%v\n", col.P50(), col.P99(), col.MeanJCT())
	fmt.Printf("anatomy    : %s\n", telemetry.AnatomyStatsLine(col))
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
			len(opts.Faults.Events), opts.Faults.Seed, okCol.Len(), col.Failures(), *jobs-col.Len())
		if inj, okI := sys.(interface{ Injector() *fault.Injector }); okI && inj.Injector() != nil {
			fmt.Printf("             %s\n", inj.Injector().Summary())
		}
		reasons := col.FailuresByReason()
		keys := make([]string, 0, len(reasons))
		for k := range reasons {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("             %4d × %s\n", reasons[k], k)
		}
		if okCol.Len() > 0 {
			fmt.Printf("latency(ok): p50=%v p99=%v mean=%v\n", okCol.P50(), okCol.P99(), okCol.MeanJCT())
		}
	}
	if *vramMiB > 0 {
		fmt.Printf("vram       : budget=%dMiB cold-starts=%d warm-hit=%.1f%% mean-load=%v\n",
			*vramMiB, col.ColdStarts(), 100*col.WarmHitRatio(), col.MeanLoadNs())
	}
	if ds, ok := sys.(interface{ Dispatcher() *core.Dispatcher }); ok {
		// Covers both -max-batch on a Paella run and the stock Paella-batch
		// system, which enables batching from inside serving.
		if st := ds.Dispatcher().Stats(); st.BatchHolds > 0 || st.Batches > 0 {
			fmt.Printf("batching   : batches=%d batched-jobs=%d holds=%d mean-size=%.2f\n",
				st.Batches, st.BatchedJobs, st.BatchHolds, col.MeanBatchSize())
		}
	}
	if *perMod {
		for _, name := range names {
			sub := col.FilterModel(name)
			if sub.Len() == 0 {
				continue
			}
			fmt.Printf("  %-16s n=%-5d p50=%-12v p99=%-12v mean=%v\n",
				name, sub.Len(), sub.P50(), sub.P99(), sub.MeanJCT())
		}
	}
}

// runCluster executes the workload on a multi-replica cluster driven by the
// conservative-window engine (sim.World): one shard Env per replica —
// dispatcher, GPU, PCIe link, VRAM state — with routing, failover, and
// terminal delivery serialized on the control Env. Serial and parallel shard
// execution produce bit-identical results; -parallel only changes wall-clock
// time.
func runCluster(opts serving.Options, reqs []workload.Request, replicas int, parallel bool,
	window sim.Time, gwName string, jobs int, rate, sigma float64, clients int,
	names []string, asJSON, perMod bool, trcOut string, vramMiB int64,
	telOut string, telWin, sloDeadline sim.Time, admitPS float64) {
	pol := newPolicy(gwName)

	w := sim.NewWorld()
	w.SetWindow(window)
	w.SetParallel(parallel)
	defer w.Close()

	var ctrlRec *trace.Recorder
	shardRecs := make([]*trace.Recorder, replicas)
	if trcOut != "" {
		ctrlRec = trace.New()
		w.Ctrl().SetRecorder(ctrlRec)
	}
	shardMts := make([]*telemetry.Meter, replicas)
	devs := make([]gpu.Config, replicas)
	for i := range devs {
		devs[i] = opts.DevCfg
	}
	c, err := cluster.NewWorldWithConfig(w, devs, func(int, gpu.Config) core.Config {
		cfg := core.DefaultConfig(sched.NewPaella(serving.DefaultFairnessThreshold))
		cfg.VRAM = opts.VRAM
		cfg.MaxBatch = opts.MaxBatch
		cfg.BatchWindow = opts.BatchWindow
		if opts.Faults != nil {
			// Mirror the serving layer: a faulty run arms tolerant
			// notification handling plus the kernel watchdog.
			cfg.FaultTolerant = true
			cfg.KernelTimeout = 50 * sim.Microsecond
		}
		return cfg
	}, pol, func(i int, shard *sim.Env) {
		if trcOut != "" {
			shardRecs[i] = trace.New()
			shard.SetRecorder(shardRecs[i])
		}
		if telOut != "" {
			shardMts[i] = telemetry.NewMeter(fmt.Sprintf("replica%d", i), telWin)
			shardMts[i].SLO(telemetry.SLOConfig{
				Name:     fmt.Sprintf("goodput@%v", time.Duration(sloDeadline)),
				Deadline: sloDeadline,
				Target:   0.99,
			})
			shard.SetMeter(shardMts[i])
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

	if admitPS > 0 {
		c.SetAdmission(gateway.NewAdmission(gateway.AdmissionConfig{
			Default: gateway.TenantLimit{RatePerSec: admitPS},
		}))
	}

	conn := c.Connect()
	completed, failed := 0, 0
	conn.OnComplete = func(uint64) { completed++ }
	conn.OnFailed = func(uint64, error) { failed++ }

	if opts.Faults != nil {
		inj, ierr := fault.NewInjector(w.Ctrl(), opts.Faults, fault.Targets{
			Device:     c.Dispatcher(0).Device(),
			Dispatcher: c.Dispatcher(0),
			Cluster:    c,
		})
		if ierr != nil {
			fatal("%v", ierr)
		}
		inj.Install()
	}

	var submit func(req core.Request)
	submit = func(req core.Request) {
		// -1 is retryable (ring full at extreme overload): retry shortly
		// (the client library's backoff), keeping the original submit time
		// so the backoff shows up in JCT. cluster.Shed is terminal — the
		// gateway already failed the request — and must not be retried.
		if conn.Submit(req) == -1 && c.LiveReplicas() > 0 {
			w.Ctrl().After(20*sim.Microsecond, func() { submit(req) })
		}
	}
	for i, r := range reqs {
		id, req := uint64(i+1), r
		w.Ctrl().At(r.At, func() {
			submit(core.Request{ID: id, Model: req.Model, Client: req.Client,
				Tenant: req.Tenant, Submit: w.Ctrl().Now()})
		})
	}
	w.RunUntil(opts.MaxSimTime)

	if trcOut != "" {
		recs := append([]*trace.Recorder{ctrlRec}, shardRecs...)
		writeTrace(trcOut, func(out io.Writer) error {
			return trace.WriteChromeTraceAll(out, recs...)
		})
	}

	col := c.Collector()
	if telOut != "" {
		writeTelemetry(telOut, opts.MaxSimTime, col, shardMts...)
	}
	if asJSON {
		if err := col.WriteJSON(os.Stdout); err != nil {
			fatal("%v", err)
		}
		return
	}
	mode := "serial"
	if parallel {
		mode = "parallel"
	}
	fmt.Printf("system     : Paella ×%d replicas, balancer=%s\n", replicas, pol.Name())
	fmt.Printf("engine     : conservative-window %s, Δ=%v\n", mode, time.Duration(window))
	if a := c.Admission(); a != nil {
		fmt.Printf("admission  : %.0f req/s per tenant; shed=%d\n", admitPS, a.TotalShed())
		for _, st := range a.Stats() {
			fmt.Printf("  %-12s admitted=%-6d shed=%d\n", st.Tenant, st.Admitted, st.Shed)
		}
	}
	fmt.Printf("workload   : %d jobs, %.0f req/s offered, σ=%.1f, %d clients, models=%s\n",
		jobs, rate, sigma, clients, strings.Join(names, ","))
	fmt.Printf("completed  : %d (%.1f%%)\n", completed, 100*float64(completed)/float64(jobs))
	fmt.Printf("throughput : %.1f req/s\n", col.Throughput())
	fmt.Printf("latency    : p50=%v p99=%v mean=%v\n", col.P50(), col.P99(), col.MeanJCT())
	fmt.Printf("anatomy    : %s\n", telemetry.AnatomyStatsLine(col))
	if opts.Faults != nil {
		fmt.Printf("faults     : %d planned events (seed %d); ok=%d failed=%d lost=%d (crashed=%d live=%d)\n",
			len(opts.Faults.Events), opts.Faults.Seed, completed, failed,
			jobs-completed-failed, c.Crashes(), c.LiveReplicas())
		reasons := col.FailuresByReason()
		keys := make([]string, 0, len(reasons))
		for k := range reasons {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("             %4d × %s\n", reasons[k], k)
		}
	}
	if vramMiB > 0 {
		fmt.Printf("vram       : budget=%dMiB/replica cold-starts=%d warm-hit=%.1f%% mean-load=%v\n",
			vramMiB, col.ColdStarts(), 100*col.WarmHitRatio(), col.MeanLoadNs())
	}
	if perMod {
		for _, name := range names {
			sub := col.FilterModel(name)
			if sub.Len() == 0 {
				continue
			}
			fmt.Printf("  %-16s n=%-5d p50=%-12v p99=%-12v mean=%v\n",
				name, sub.Len(), sub.P50(), sub.P99(), sub.MeanJCT())
		}
	}
}

// runLLM executes a generative (autoregressive) workload on the
// prefill/decode front of internal/cluster: seeded open-loop arrivals with
// lognormal token lengths, a paged KV-cache per engine, and either
// continuous or launch-time decode batching. -pd-split "P:D" disaggregates
// prefill and decode onto separate engine pools with the KV handoff
// charged over the interconnect; otherwise -replicas colocated engines
// each run both phases.
func runLLM(devCfg gpu.Config, jobs int, rate, sigma float64, clients int, seed int64,
	vramMiB int64, maxBatch, maxTokens int, kvBlockKiB int64, static bool,
	pdSplit string, replicas int, parallel bool, window sim.Time, asJSON bool,
	telOut string, telWin, sloDeadline sim.Time, gwName string, tenants int, admitPS float64) {
	toks := workload.DefaultTokenSpec(seed)
	if maxTokens > 0 {
		toks.MaxOutput = maxTokens
	}
	sampler, err := workload.NewTokenSampler(toks)
	if err != nil {
		fatal("%v", err)
	}
	cfg := llm.Config{
		Spec:       llm.DefaultSpec(),
		DevCfg:     devCfg,
		MaxBatch:   maxBatch,
		Continuous: !static,
	}
	if vramMiB > 0 {
		cfg.VRAMBytes = vramMiB << 20
	}
	if kvBlockKiB > 0 {
		cfg.KVBlockBytes = kvBlockKiB << 10
	}
	pdCfg := cluster.PDConfig{LLM: cfg, Prefills: replicas,
		MakePolicy: func() gateway.Policy { return newPolicy(gwName) }}
	deploy := fmt.Sprintf("colocated ×%d", replicas)
	if pdSplit != "" {
		p, d := 0, 0
		if _, serr := fmt.Sscanf(pdSplit, "%d:%d", &p, &d); serr != nil || p < 1 || d < 1 {
			fatal("bad -pd-split %q (want \"P:D\" with P,D ≥ 1)", pdSplit)
		}
		pdCfg.Prefills, pdCfg.Decodes = p, d
		deploy = fmt.Sprintf("disaggregated %dP:%dD", p, d)
	}

	// Arrival times reuse the standard trace generator; token lengths come
	// from the seeded sampler, drawn in submission order.
	reqs, err := workload.Generate(workload.Spec{
		Mix:        workload.Uniform("llm"),
		Sigma:      sigma,
		RatePerSec: rate,
		Jobs:       jobs,
		Clients:    clients,
		Seed:       seed,
		Tenants:    tenants,
	})
	if err != nil {
		fatal("%v", err)
	}
	if len(reqs) == 0 {
		fatal("empty trace")
	}
	until := reqs[len(reqs)-1].At + 30*sim.Second

	const ttftSLO = 200 * sim.Millisecond
	var meters []*telemetry.Meter
	llmSLOs := func(mt *telemetry.Meter) {
		mt.SLO(telemetry.SLOConfig{
			Name:     fmt.Sprintf("goodput@%v", time.Duration(sloDeadline)),
			Deadline: sloDeadline,
			Target:   0.99,
		})
		mt.SLO(telemetry.SLOConfig{
			Name: "ttft@200ms", Metric: telemetry.SLOTTFT, Deadline: ttftSLO, Target: 0.99,
		})
	}
	var pd *cluster.PD
	var schedule func(at sim.Time, fn func())
	var run func(until sim.Time)
	if parallel {
		if pdCfg.Prefills+pdCfg.Decodes < 2 {
			fatal("-parallel requires more than one engine (-replicas > 1 or -pd-split)")
		}
		w := sim.NewWorld()
		w.SetWindow(window)
		w.SetParallel(true)
		defer w.Close()
		if telOut != "" {
			ctrlMt := telemetry.NewMeter("front", telWin)
			w.Ctrl().SetMeter(ctrlMt)
			meters = append(meters, ctrlMt)
			pdCfg.ShardSetup = func(i int, env *sim.Env) {
				mt := telemetry.NewMeter(fmt.Sprintf("engine%d", i), telWin)
				llmSLOs(mt)
				env.SetMeter(mt)
				meters = append(meters, mt)
			}
		}
		if pd, err = cluster.NewPDWorld(w, pdCfg); err != nil {
			fatal("%v", err)
		}
		ctrl := w.Ctrl()
		schedule = func(at sim.Time, fn func()) { ctrl.At(at, fn) }
		run = func(t sim.Time) { w.RunUntil(t) }
	} else {
		env := sim.NewEnv()
		if telOut != "" {
			// Serial mode shares one Env (and hence one meter) across the
			// front and every engine.
			mt := telemetry.NewMeter("llm", telWin)
			llmSLOs(mt)
			env.SetMeter(mt)
			meters = append(meters, mt)
		}
		if pd, err = cluster.NewPD(env, pdCfg); err != nil {
			fatal("%v", err)
		}
		schedule = func(at sim.Time, fn func()) { env.At(at, fn) }
		run = func(t sim.Time) { env.RunUntil(t) }
	}

	if admitPS > 0 {
		pd.SetAdmission(gateway.NewAdmission(gateway.AdmissionConfig{
			Default: gateway.TenantLimit{RatePerSec: admitPS},
		}))
	}
	completed, failed := 0, 0
	pd.OnFinish = func(rec metrics.JobRecord) {
		if rec.Failed {
			failed++
		} else {
			completed++
		}
	}
	for i, r := range reqs {
		tk := sampler.Next()
		req := llm.Request{
			ID:     uint64(i + 1),
			Client: r.Client,
			Submit: r.At,
			Prompt: tk.Prompt,
			Output: tk.Output,
			Tenant: r.Tenant,
			// Each client is one ongoing conversation: session affinity
			// keeps its turns on the replica holding the KV state.
			Session: uint64(r.Client) + 1,
		}
		schedule(r.At, func() { pd.Submit(req) })
	}
	run(until)

	col := pd.Collector()
	if telOut != "" {
		writeTelemetry(telOut, until, col, meters...)
	}
	if asJSON {
		if err := col.WriteJSON(os.Stdout); err != nil {
			fatal("%v", err)
		}
		return
	}
	mode := "continuous"
	if static {
		mode = "static"
	}
	ttfts, tpots := col.TTFTs(), col.TPOTs()
	transfers, kvBytes := pd.Transfers()
	fmt.Printf("system     : Paella-LLM (%s batching), %s\n", mode, deploy)
	fmt.Printf("gateway    : policy=%s\n", gwName)
	if a := pd.Admission(); a != nil {
		fmt.Printf("admission  : %.0f req/s per tenant; shed=%d\n", admitPS, a.TotalShed())
		for _, st := range a.Stats() {
			fmt.Printf("  %-12s admitted=%-6d shed=%d\n", st.Tenant, st.Admitted, st.Shed)
		}
	}
	fmt.Printf("workload   : %d reqs, %.0f req/s offered, σ=%.1f, %d clients, prompt~LN(%.0f), output~LN(%.0f)≤%d tok\n",
		jobs, rate, sigma, clients, toks.PromptMean, toks.OutputMean, toks.MaxOutput)
	fmt.Printf("completed  : %d (%.1f%%) failed=%d lost=%d\n",
		completed, 100*float64(completed)/float64(jobs), failed, jobs-completed-failed)
	fmt.Printf("ttft       : p50=%v p99=%v goodput(<200ms)=%.1f req/s\n",
		metrics.Percentile(ttfts, 50), metrics.Percentile(ttfts, 99), col.TTFTGoodput(ttftSLO))
	fmt.Printf("tpot       : p50=%v p99=%v\n",
		metrics.Percentile(tpots, 50), metrics.Percentile(tpots, 99))
	fmt.Printf("tokens     : %.1f tok/s\n", col.TokensPerSec())
	fmt.Printf("kv         : peak-pages=%d preemptions=%d transfers=%d (%.1f MiB)\n",
		pd.KVPeakPages(), pd.Preemptions(), transfers, float64(kvBytes)/(1<<20))
	fmt.Printf("anatomy    : %s\n", telemetry.AnatomyStatsLine(col))
}

// writeTelemetry writes the windowed telemetry export: CSV when the path
// ends in .csv, the full JSON export (anatomy + meters + alerts) otherwise.
func writeTelemetry(path string, endTime sim.Time, col *metrics.Collector, meters ...*telemetry.Meter) {
	writeTrace(path, func(w io.Writer) error {
		if strings.HasSuffix(path, ".csv") {
			return telemetry.WriteCSV(w, endTime, meters...)
		}
		return telemetry.WriteJSON(w, endTime, telemetry.Export{Collector: col, Meters: meters})
	})
}

// newPolicy constructs a fresh instance of the named gateway policy (the
// name was validated at startup).
func newPolicy(name string) gateway.Policy {
	pol, err := gateway.New(name)
	if err != nil {
		fatal("%v", err)
	}
	return pol
}

func writeTrace(path string, write func(w io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		fatal("%v", err)
	}
	if err := write(f); err != nil {
		f.Close()
		fatal("%v", err)
	}
	if err := f.Close(); err != nil {
		fatal("%v", err)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
