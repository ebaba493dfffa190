// Command paella-trace generates workload traces and renders per-SM GPU
// execution timelines, for inspecting scheduling behaviour directly.
//
// Subcommands:
//
//	paella-trace workload -rate 200 -jobs 20 -sigma 2       # print a trace
//	paella-trace gpu -system Paella -jobs 6                 # render SM timeline
//	paella-trace timeline -system Paella -jobs 50           # counter telemetry
//	paella-trace report a.json b.json -topk 5               # latency anatomy
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"paella/internal/experiments"
	"paella/internal/metrics"
	"paella/internal/model"
	"paella/internal/serving"
	"paella/internal/sim"
	"paella/internal/telemetry"
	"paella/internal/trace"
	"paella/internal/vram"
	"paella/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "workload":
		workloadCmd(os.Args[2:])
	case "gpu":
		gpuCmd(os.Args[2:])
	case "timeline":
		timelineCmd(os.Args[2:])
	case "report":
		reportCmd(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: paella-trace workload|gpu|timeline|report [flags]")
	os.Exit(2)
}

func workloadCmd(args []string) {
	fs := flag.NewFlagSet("workload", flag.ExitOnError)
	rate := fs.Float64("rate", 200, "offered load (req/s)")
	jobs := fs.Int("jobs", 20, "requests to generate")
	sigma := fs.Float64("sigma", 2, "lognormal shape")
	clients := fs.Int("clients", 4, "clients")
	seed := fs.Int64("seed", 1, "seed")
	out := fs.String("out", "", "write the trace as JSON to this file (for paella-sim -trace)")
	fs.Parse(args)

	trace, err := workload.Generate(workload.Spec{
		Mix:        workload.Uniform(model.Names()...),
		Sigma:      *sigma,
		RatePerSec: *rate,
		Jobs:       *jobs,
		Clients:    *clients,
		Seed:       *seed,
	})
	if err != nil {
		fatal("%v", err)
	}
	if *out != "" {
		writeTo(*out, func(w io.Writer) error { return workload.WriteJSON(w, trace) })
		fmt.Printf("wrote %d requests to %s\n", len(trace), *out)
		return
	}
	fmt.Printf("%-14s %-16s %s\n", "arrival", "model", "client")
	for _, r := range trace {
		fmt.Printf("%-14v %-16s %d\n", r.At, r.Model, r.Client)
	}
	fmt.Printf("\nobserved rate: %.1f req/s\n", workload.ObservedRate(trace))
}

// timelineCmd runs a serving system with the structured tracing recorder
// attached and reports the counter telemetry it collected: every sampled
// series with its extremes and time-weighted mean, an optional ASCII
// rendering of one series, and optional Chrome-trace / CSV exports.
func timelineCmd(args []string) {
	fs := flag.NewFlagSet("timeline", flag.ExitOnError)
	system := fs.String("system", "Paella", "serving system (see Table 3)")
	models := fs.String("models", "resnet18", "comma-separated zoo models")
	rate := fs.Float64("rate", 300, "offered load (req/s)")
	jobs := fs.Int("jobs", 50, "number of requests")
	sigma := fs.Float64("sigma", 2, "lognormal inter-arrival shape")
	clients := fs.Int("clients", 4, "clients")
	seed := fs.Int64("seed", 1, "workload seed")
	vramMiB := fs.Int64("vram", 0, "device-memory budget in MiB (0 = unconstrained)")
	series := fs.String("series", "", "render one series as ASCII (fully-qualified process/counter/series key)")
	width := fs.Int("width", 72, "ASCII rendering width in buckets")
	out := fs.String("out", "", "write a Chrome trace-event JSON file (open in ui.perfetto.dev)")
	csv := fs.String("csv", "", "write the counter time-series as CSV")
	fs.Parse(args)

	opts := serving.DefaultOptions()
	opts.Models = nil
	for _, name := range strings.Split(*models, ",") {
		m, err := model.ByName(strings.TrimSpace(name))
		if err != nil {
			fatal("%v", err)
		}
		opts.Models = append(opts.Models, m)
	}
	if *vramMiB > 0 {
		opts.VRAM = &vram.Config{CapacityBytes: *vramMiB << 20}
	}
	names := make([]string, len(opts.Models))
	for i, m := range opts.Models {
		names[i] = m.Name
	}
	reqs, err := workload.Generate(workload.Spec{
		Mix:        workload.Uniform(names...),
		Sigma:      *sigma,
		RatePerSec: *rate,
		Jobs:       *jobs,
		Clients:    *clients,
		Seed:       *seed,
	})
	if err != nil {
		fatal("%v", err)
	}
	opts.MaxSimTime = reqs[len(reqs)-1].At + 10*sim.Second
	opts.Trace = trace.New()

	sys, err := serving.NewSystem(*system)
	if err != nil {
		fatal("%v", err)
	}
	col, err := serving.RunTrace(sys, reqs, opts)
	if err != nil {
		fatal("%v", err)
	}
	rec := opts.Trace
	until := rec.MaxTime()
	spans, asyncs, instants, samples := rec.Counts()
	fmt.Printf("system   : %s (%d jobs, %d completed)\n", *system, *jobs, col.Len())
	fmt.Printf("trace    : %d events (%d spans, %d job phases, %d instants, %d samples) over %v\n",
		rec.Len(), spans, asyncs, instants, samples, until)
	fmt.Printf("\n%-44s %8s %10s %10s %10s\n", "series", "samples", "min", "max", "mean")
	for _, ts := range rec.AllSeries() {
		fmt.Printf("%-44s %8d %10.4g %10.4g %10.4g\n",
			ts.Key(), len(ts.Points), ts.Min(), ts.Max(), ts.TimeWeightedMean(until))
	}
	if *series != "" {
		parts := strings.SplitN(*series, "/", 3)
		if len(parts) != 3 {
			fatal("bad -series %q: want process/counter/series", *series)
		}
		ts := rec.Series(parts[0], parts[1], parts[2])
		if ts == nil {
			fatal("series %q has no samples", *series)
		}
		fmt.Printf("\n%s:\n%s", ts.Key(), renderSeries(ts, until, *width))
	}
	if *out != "" {
		writeTo(*out, rec.WriteChromeTrace)
		fmt.Printf("\nwrote Chrome trace to %s (open in ui.perfetto.dev)\n", *out)
	}
	if *csv != "" {
		writeTo(*csv, rec.WriteCSV)
		fmt.Printf("wrote counter CSV to %s\n", *csv)
	}
}

// reportCmd renders the latency-anatomy report over one or more record
// dumps (paella-sim -json > file): a per-system phase table (means and
// p99s side by side) followed by a top-K slowest-request blame table per
// input, attributing each straggler to its dominant phase.
func reportCmd(args []string) {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	topk := fs.Int("topk", 10, "slowest requests to blame per input (0 = skip the blame tables)")
	fs.Parse(args)
	files := fs.Args()
	if len(files) == 0 {
		fatal("usage: paella-trace report [-topk N] records.json [more.json ...]")
	}
	var rows []telemetry.SystemAnatomy
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			fatal("%v", err)
		}
		col, err := metrics.ReadJSON(f)
		f.Close()
		if err != nil {
			fatal("%s: %v", path, err)
		}
		label := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
		rows = append(rows, telemetry.SystemAnatomy{System: label, Collector: col})
	}
	if err := telemetry.WriteAnatomyTable(os.Stdout, rows); err != nil {
		fatal("%v", err)
	}
	if *topk <= 0 {
		return
	}
	for _, row := range rows {
		fmt.Printf("\nslowest %d requests — %s:\n", *topk, row.System)
		if err := telemetry.WriteBlameTable(os.Stdout, row.Collector, *topk); err != nil {
			fatal("%v", err)
		}
	}
}

// renderSeries draws the step function as a bar chart: time bucketed into
// width columns, each column the series value at the bucket's start scaled
// to an 8-row vertical resolution.
func renderSeries(ts *trace.TimeSeries, until sim.Time, width int) string {
	if width < 8 {
		width = 8
	}
	max := ts.Max()
	if max <= 0 {
		max = 1
	}
	const rows = 8
	levels := make([]int, width)
	for i := range levels {
		t := sim.Time(float64(until) * float64(i) / float64(width))
		levels[i] = int(ts.ValueAt(t) / max * rows)
	}
	var b strings.Builder
	for row := rows; row >= 1; row-- {
		if row == rows {
			fmt.Fprintf(&b, "%10.4g |", max)
		} else {
			b.WriteString("           |")
		}
		for _, lv := range levels {
			if lv >= row {
				b.WriteByte('#')
			} else {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%10s +%s\n", "0", strings.Repeat("-", width))
	fmt.Fprintf(&b, "%10s  0%*v\n", "", width-1, until)
	return b.String()
}

func writeTo(path string, write func(w io.Writer) error) {
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

// gpuCmd renders the SM timeline of Figure 1's didactic scenario
// (experiments.RunDidactic) for one submission method, or with -json
// exports its Chrome trace.
func gpuCmd(args []string) {
	fs := flag.NewFlagSet("gpu", flag.ExitOnError)
	system := fs.String("system", "Paella", "Paella | CUDA-MS | CUDA-SS")
	jobs := fs.Int("jobs", 6, "concurrent jobs to trace")
	sms := fs.Int("sms", 4, "SMs on the didactic device")
	kernels := fs.Int("kernels", 3, "kernels per job")
	asJSON := fs.Bool("json", false, "emit the run's Chrome trace-event JSON instead of ASCII")
	fs.Parse(args)

	dev, _, err := experiments.RunDidactic(*system, 32, *jobs, *sms, *kernels)
	if err != nil {
		fatal("%v", err)
	}
	if *asJSON {
		if err := trace.FromEnv(dev.Env()).WriteChromeTrace(os.Stdout); err != nil {
			fatal("%v", err)
		}
		return
	}
	fmt.Printf("%s on %d SMs — one column = 10µs:\n\n", *system, *sms)
	fmt.Print(dev.Timeline(10 * sim.Microsecond))
	fmt.Printf("\nmakespan: %v\n", dev.Makespan())
}
