// Command paella-sim runs one serving system against one workload and
// prints throughput/latency statistics — the interactive counterpart to
// the fixed experiment sweeps of paella-bench.
//
// Every run takes one path: parse checks the flags and picks the mode —
// single (serving.RunTrace on one GPU), fleet (-replicas > 1 on a
// sim.World), elastic (-autoscale) or llm (-llm) — the mode runs, and
// finish writes the output files and the -json dump or the report. A flag
// the mode would ignore is refused with a one-line error (exit status 1).
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
// one replica per shard:
//
//	paella-sim -replicas 8 -gateway least-loaded \
//	           -rate 2000 -jobs 20000 -models synth:8 -zipf 1.1
//
// Diurnal traffic against an elastic pool of one to four T4s that park,
// warm (paying cold-start weight paging), drain and retire:
//
//	paella-sim -autoscale queue-depth -traffic diurnal -rate 20000 \
//	           -replicas 2 -min-replicas 1 -max-replicas 4 \
//	           -models synth:2 -vram 32 -slo 5ms
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"paella/internal/autoscale"
	"paella/internal/gateway"
	"paella/internal/gpu"
	"paella/internal/metrics"
	"paella/internal/model"
	"paella/internal/serving"
	"paella/internal/sim"
	"paella/internal/telemetry"
	"paella/internal/trace"
)

// mode is the run path a command line selects.
type mode int

const (
	modeSingle  mode = iota // one system on one GPU
	modeFleet               // -replicas > 1
	modeElastic             // -autoscale
	modeLLM                 // -llm
)

// config is one parsed command line: the flag values, then what parse
// derives from them.
type config struct {
	system, models, device, traceIn, traceOut, traceCSV, faults string
	gateway, autoscale, traffic, pdSplit, telOut                string
	rate, sigma, zipf, chaos, admitRate                         float64
	jobs, clients, replicas, tenants, maxBatch, maxTokens       int
	minReplicas, maxReplicas                                    int
	seed, vramMiB, kvBlockKiB                                   int64
	perModel, asJSON, llm, llmStatic                            bool
	window, batchWindow, scaleInterval, telWindow, slo          time.Duration

	list  []string // a 'list' argument's registry entries; nothing runs
	mode  mode
	dev   gpu.Config
	zoo   []*model.Model // the -models zoo (not on -llm)
	names []string       // the model names requests carry
	synth int            // -models synth:N; workload builds the zoo

	prefills, decodes int // the -llm engine pools
}

// errUsage reports a command line the flag package rejected; it has
// already printed the problem and the usage text.
var errUsage = errors.New("usage")

// parse binds args to a config and enforces every cross-flag rule. Flag
// syntax errors and the usage text go to stderr. An accepted config has
// finite float flags, window, zipf, admit-rate, max-tokens and
// batch-window ≥ 0, slo, telemetry-window and scale-interval > 0,
// replicas ≥ 1, and every flag of a mode other than its own at its
// default.
func parse(args []string, stderr io.Writer) (config, error) {
	var c config
	fs := flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&c.system, "system", "Paella", "serving system (see Table 3; 'list' to enumerate)")
	fs.StringVar(&c.models, "models", "all", "comma-separated zoo models, 'all', or 'synth:N' for an N-model synthetic zoo")
	fs.Float64Var(&c.rate, "rate", 200, "offered load (req/s)")
	fs.IntVar(&c.jobs, "jobs", 500, "number of requests")
	fs.Float64Var(&c.sigma, "sigma", 2, "lognormal inter-arrival shape")
	fs.IntVar(&c.clients, "clients", 8, "number of clients")
	fs.Int64Var(&c.seed, "seed", 1, "workload seed")
	fs.StringVar(&c.device, "gpu", "t4", "gpu preset: t4 | p100 | gtx1660s")
	fs.BoolVar(&c.perModel, "per-model", false, "print per-model percentiles")
	fs.BoolVar(&c.asJSON, "json", false, "dump per-request records as JSON")
	fs.StringVar(&c.traceIn, "trace", "", "replay a JSON trace file instead of generating one")
	fs.Int64Var(&c.vramMiB, "vram", 0, "device-memory budget for model weights in MiB (0 = unconstrained)")
	fs.Float64Var(&c.zipf, "zipf", 0, "zipfian model-popularity exponent (0 = uniform mix)")
	fs.StringVar(&c.traceOut, "trace-out", "", "write a Chrome trace-event JSON file (open in ui.perfetto.dev)")
	fs.StringVar(&c.traceCSV, "trace-csv", "", "write the counter time-series as CSV")
	fs.StringVar(&c.faults, "faults", "", "JSON fault plan (internal/fault); arms the dispatcher's recovery machinery")
	fs.Float64Var(&c.chaos, "chaos", 0, "synthesize a fault plan at this intensity in (0,1] instead of -faults")
	fs.IntVar(&c.replicas, "replicas", 1, "number of cluster replicas (GPUs); >1 runs the conservative-window cluster engine")
	fs.DurationVar(&c.window, "window", 50*time.Microsecond, "conservative synchronization window (with -replicas > 1 or -autoscale)")
	fs.StringVar(&c.gateway, "gateway", "least-loaded", "gateway routing policy from the internal/gateway registry for -replicas > 1, -llm, and -autoscale ('list' to enumerate)")
	fs.IntVar(&c.tenants, "tenants", 0, "tag requests with N tenants drawn uniformly (0 = untenanted)")
	fs.Float64Var(&c.admitRate, "admit-rate", 0, "per-tenant admission rate in req/s (gateway token bucket; 0 = no admission control)")
	fs.IntVar(&c.maxBatch, "max-batch", 0, "dynamic-batching width cap for the gated Paella dispatcher (≤1 = off)")
	fs.DurationVar(&c.batchWindow, "batch-window", 0, "max batch-formation hold for a lone ready kernel (with -max-batch > 1)")
	fs.BoolVar(&c.llm, "llm", false, "generative (LLM) serving: autoregressive jobs with a paged KV-cache and continuous batching")
	fs.BoolVar(&c.llmStatic, "llm-static", false, "use launch-time (static) decode batching instead of continuous (with -llm)")
	fs.IntVar(&c.maxTokens, "max-tokens", 0, "cap sampled output-token counts (with -llm; 0 = distribution default)")
	fs.Int64Var(&c.kvBlockKiB, "kv-block", 0, "KV-cache page size in KiB (with -llm; 0 = 2048)")
	fs.StringVar(&c.pdSplit, "pd-split", "", "disaggregate prefill/decode as \"P:D\" replica pools (with -llm; empty = colocated -replicas engines)")
	fs.StringVar(&c.autoscale, "autoscale", "", "autoscaling policy from the internal/autoscale registry ('list' to enumerate); elastic cluster engine")
	fs.StringVar(&c.traffic, "traffic", "", "open-loop traffic envelope: constant | diurnal | spike | replay:<ndjson> | <spec>.json (overrides the flat generator)")
	fs.IntVar(&c.minReplicas, "min-replicas", 1, "autoscaler floor on the active pool (with -autoscale)")
	fs.IntVar(&c.maxReplicas, "max-replicas", 0, "autoscaler ceiling / provisioned fleet size (with -autoscale; 0 = -replicas)")
	fs.DurationVar(&c.scaleInterval, "scale-interval", 5*time.Millisecond, "autoscaler control-loop tick in virtual time (with -autoscale)")
	fs.StringVar(&c.telOut, "telemetry-out", "", "write the windowed telemetry export (JSON, or CSV when the path ends in .csv)")
	fs.DurationVar(&c.telWindow, "telemetry-window", 10*time.Millisecond, "telemetry aggregation window (virtual time)")
	fs.DurationVar(&c.slo, "slo", 50*time.Millisecond, "latency SLO deadline for the burn-rate monitor (JCT; TTFT@200ms is added on -llm)")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return c, err
		}
		return c, errUsage
	}
	var nonFinite error
	fs.VisitAll(func(f *flag.Flag) {
		if x, ok := f.Value.(flag.Getter).Get().(float64); ok && nonFinite == nil &&
			(math.IsNaN(x) || math.IsInf(x, 0)) {
			nonFinite = fmt.Errorf("-%s must be finite, got %v", f.Name, x)
		}
	})
	if nonFinite != nil {
		return c, nonFinite
	}
	changed := func(names ...string) string {
		for _, name := range names {
			if f := fs.Lookup(name); f.Value.String() != f.DefValue {
				return name
			}
		}
		return ""
	}

	if c.gateway == "list" {
		c.list = gateway.Names()
		return c, nil
	}
	if _, err := gateway.New(c.gateway); err != nil {
		return c, err
	}
	if c.autoscale == "list" {
		c.list = autoscale.Names()
		return c, nil
	}
	if c.system == "list" {
		for _, row := range serving.Table3() {
			c.list = append(c.list, fmt.Sprintf("%-16s dispatch=%-7s sched=%s", row.Name, row.Dispatch, row.Scheduler))
		}
		return c, nil
	}
	preset, ok := gpuPresets[c.device]
	if !ok {
		return c, fmt.Errorf("unknown gpu preset %q", c.device)
	}
	c.dev = preset.cfg()
	switch {
	case c.llm:
		c.mode = modeLLM
	case c.autoscale != "":
		c.mode = modeElastic
	case c.replicas > 1:
		c.mode = modeFleet
	}
	single, fleet, elastic, llm := c.mode == modeSingle, c.mode == modeFleet, c.mode == modeElastic, c.mode == modeLLM
	if llm {
		// One generated arrival process and one generative model, without
		// faults or trace recorders.
		if name := changed("system", "models", "zipf", "trace", "traffic", "batch-window",
			"faults", "chaos", "trace-out", "trace-csv", "per-model", "autoscale", "window"); name != "" {
			return c, fmt.Errorf("-%s does not apply to -llm", name)
		}
		c.prefills = c.replicas
		if c.pdSplit != "" {
			if _, err := fmt.Sscanf(c.pdSplit, "%d:%d", &c.prefills, &c.decodes); err != nil || c.prefills < 1 || c.decodes < 1 {
				return c, fmt.Errorf("bad -pd-split %q (want \"P:D\" with P,D ≥ 1)", c.pdSplit)
			}
		}
	}
	gwSet := false
	fs.Visit(func(f *flag.Flag) { gwSet = gwSet || f.Name == "gateway" })
	llmEquiv := map[string]string{"Paella-LLM": "-llm", "Paella-LLM-static": "-llm -llm-static",
		"Paella-LLM-PD": "-llm -pd-split 1:1"}[c.system]
	for _, rule := range []struct {
		broken bool
		msg    string
	}{
		{c.replicas < 1, fmt.Sprintf("-replicas must be ≥ 1, got %d", c.replicas)},
		{c.window < 0, fmt.Sprintf("-window must be ≥ 0, got %v", c.window)},
		{!llm && llmEquiv != "", fmt.Sprintf("-system %s serves the generative workload: run %s", c.system, llmEquiv)},
		{!llm && changed("llm-static", "max-tokens", "kv-block", "pd-split") != "",
			"-llm-static, -max-tokens, -kv-block, and -pd-split require -llm"},
		{c.traceIn != "" && c.traffic != "", "-trace and -traffic are mutually exclusive"},
		{c.faults != "" && c.chaos > 0, "-faults and -chaos are mutually exclusive"},
		{elastic && c.system != "Paella", "-autoscale runs the gated Paella dispatcher per replica; -system must be Paella"},
		{elastic && (c.faults != "" || c.chaos > 0 || c.admitRate > 0 || c.traceOut != "" || c.traceCSV != ""),
			"-autoscale does not compose with -faults/-chaos, -admit-rate, or trace output"},
		{!elastic && changed("min-replicas", "max-replicas") != "", "-min-replicas and -max-replicas require -autoscale"},
		{!elastic && changed("scale-interval") != "", "-scale-interval requires -autoscale"},
		{fleet && c.system != "Paella", "-replicas > 1 runs the gated Paella dispatcher per replica; -system must be Paella"},
		{fleet && c.traceCSV != "", "-trace-csv is not supported with -replicas > 1 (use -trace-out for the merged trace)"},
		{single && (gwSet || c.admitRate > 0), "-gateway and -admit-rate front the cluster engine: use -replicas > 1 or -llm"},
		{single && changed("window") != "", "-window sets the cluster engine's barrier interval: use -replicas > 1 or -autoscale"},
		{c.zipf < 0, fmt.Sprintf("-zipf must be ≥ 0, got %v", c.zipf)},
		{c.admitRate < 0, fmt.Sprintf("-admit-rate must be ≥ 0, got %v", c.admitRate)},
		{c.maxTokens < 0, fmt.Sprintf("-max-tokens must be ≥ 0, got %d", c.maxTokens)},
		{c.batchWindow < 0, fmt.Sprintf("-batch-window must be ≥ 0, got %v", c.batchWindow)},
		{c.scaleInterval <= 0, fmt.Sprintf("-scale-interval must be > 0, got %v", c.scaleInterval)},
		{c.telWindow <= 0, fmt.Sprintf("-telemetry-window must be > 0, got %v", c.telWindow)},
		{c.slo <= 0, fmt.Sprintf("-slo must be > 0, got %v", c.slo)},
	} {
		if rule.broken {
			return c, errors.New(rule.msg)
		}
	}
	if elastic {
		if _, err := autoscale.New(c.autoscale); err != nil {
			return c, err
		}
	}
	if llm {
		return c, nil
	}
	var err error
	switch n, synth := strings.CutPrefix(c.models, "synth:"); {
	case synth:
		// workload builds the synthetic zoo; parse stays cheap.
		if c.synth, err = strconv.Atoi(n); err != nil || c.synth <= 0 {
			return c, fmt.Errorf("bad synthetic zoo size %q", n)
		}
	case c.models == "all":
		c.zoo = model.Table2Models()
	default:
		for _, name := range strings.Split(c.models, ",") {
			m, err := model.ByName(strings.TrimSpace(name))
			if err != nil {
				return c, err
			}
			c.zoo = append(c.zoo, m)
		}
	}
	return c, nil
}

// gpuPresets are the -gpu choices and the hourly price paella-sim bills
// for each — the same offer book the autoscale experiment's mix optimizer
// uses.
var gpuPresets = map[string]struct {
	cfg   func() gpu.Config
	price float64
}{
	"t4":       {gpu.TeslaT4, 0.53},
	"p100":     {gpu.TeslaP100, 1.46},
	"gtx1660s": {gpu.GTX1660Super, 0.25},
}

func main() {
	c, err := parse(os.Args[1:], os.Stderr)
	switch {
	case errors.Is(err, flag.ErrHelp):
		return
	case errors.Is(err, errUsage):
		os.Exit(2)
	case err != nil:
		fatal("%v", err)
	}
	if c.list != nil {
		fmt.Printf("  %s\n", strings.Join(c.list, "\n  "))
		return
	}
	opts, reqs := c.workload()
	switch c.mode {
	case modeSingle:
		c.finish(c.serveSingle(opts, reqs))
	case modeFleet:
		c.finish(c.serveFleet(opts, reqs))
	case modeElastic:
		c.finish(c.serveElastic(opts, reqs))
	case modeLLM:
		c.finish(c.serveLLM(opts, reqs))
	}
}

// outcome is what a mode's run leaves for finish.
type outcome struct {
	col    *metrics.Collector
	until  sim.Time           // end of the run, the telemetry horizon
	recs   []*trace.Recorder  // with -trace-out; the first also feeds -trace-csv
	meters []*telemetry.Meter // with -telemetry-out
	report func()             // prints the mode's statistics
}

// finish writes the run's output files, then the -json record dump or the
// mode's report.
func (c *config) finish(out outcome) {
	if c.traceOut != "" {
		writeFile(c.traceOut, func(w io.Writer) error {
			return trace.WriteChromeTraceAll(w, out.recs...)
		})
	}
	if c.traceCSV != "" {
		writeFile(c.traceCSV, out.recs[0].WriteCSV)
	}
	if c.telOut != "" {
		writeFile(c.telOut, func(w io.Writer) error {
			if strings.HasSuffix(c.telOut, ".csv") {
				return telemetry.WriteCSV(w, out.until, out.meters...)
			}
			return telemetry.WriteJSON(w, out.until, telemetry.Export{Collector: out.col, Meters: out.meters})
		})
	}
	if c.asJSON {
		if err := out.col.WriteJSON(os.Stdout); err != nil {
			fatal("%v", err)
		}
		return
	}
	out.report()
}

// meter returns the telemetry meter of one Env. A serving meter monitors
// the -slo goodput objective, plus TTFT@200ms on -llm; the front meter of
// a World's control Env monitors none.
func (c *config) meter(name string, serving bool) *telemetry.Meter {
	mt := telemetry.NewMeter(name, sim.Time(c.telWindow))
	if serving {
		mt.SLO(slo("goodput", telemetry.SLOJCT, sim.Time(c.slo), 0.99))
		if c.mode == modeLLM {
			mt.SLO(slo("ttft", telemetry.SLOTTFT, ttftSLO, 0.99))
		}
	}
	return mt
}

// slo is the objective that target of requests meet deadline on metric.
func slo(name string, metric telemetry.SLOMetric, deadline sim.Time, target float64) telemetry.SLOConfig {
	return telemetry.SLOConfig{
		Name:     fmt.Sprintf("%s@%v", name, time.Duration(deadline)),
		Metric:   metric,
		Deadline: deadline,
		Target:   target,
	}
}

// summary prints the lines single and fleet runs share: the workload,
// completions, throughput, latency and anatomy.
func (c *config) summary(col *metrics.Collector, completed int) {
	fmt.Printf("workload   : %d jobs, %.0f req/s offered, σ=%.1f, %d clients, models=%s\n",
		c.jobs, c.rate, c.sigma, c.clients, strings.Join(c.names, ","))
	fmt.Printf("completed  : %d (%.1f%%)\n", completed, 100*float64(completed)/float64(c.jobs))
	fmt.Printf("throughput : %.1f req/s\n", col.Throughput())
	fmt.Printf("latency    : p50=%v p99=%v mean=%v\n", col.P50(), col.P99(), col.MeanJCT())
	fmt.Printf("anatomy    : %s\n", telemetry.AnatomyStatsLine(col))
}

// failureReasons prints the failed-request count of each typed reason.
func failureReasons(col *metrics.Collector) {
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

// vramLine prints the residency statistics under a -vram budget of
// unit ("MiB" or "MiB/replica").
func (c *config) vramLine(col *metrics.Collector, unit string) {
	if c.vramMiB > 0 {
		fmt.Printf("vram       : budget=%d%s cold-starts=%d warm-hit=%.1f%% mean-load=%v\n",
			c.vramMiB, unit, col.ColdStarts(), 100*col.WarmHitRatio(), col.MeanLoadNs())
	}
}

// perModelTable prints the -per-model percentiles.
func (c *config) perModelTable(col *metrics.Collector) {
	if !c.perModel {
		return
	}
	for _, name := range c.names {
		sub := col.FilterModel(name)
		if sub.Len() == 0 {
			continue
		}
		fmt.Printf("  %-16s n=%-5d p50=%-12v p99=%-12v mean=%v\n",
			name, sub.Len(), sub.P50(), sub.P99(), sub.MeanJCT())
	}
}

// admissionLines prints the gateway admission ledger, if one is installed.
func (c *config) admissionLines(a *gateway.Admission) {
	if a == nil {
		return
	}
	fmt.Printf("admission  : %.0f req/s per tenant; shed=%d\n", c.admitRate, a.TotalShed())
	for _, st := range a.Stats() {
		fmt.Printf("  %-12s admitted=%-6d shed=%d\n", st.Tenant, st.Admitted, st.Shed)
	}
}

// engineLine names the World engine and its window, plus extra.
func (c *config) engineLine(extra string) {
	fmt.Printf("engine     : conservative-window serial, Δ=%v%s\n", c.window, extra)
}

func writeFile(path string, write func(w io.Writer) error) {
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
