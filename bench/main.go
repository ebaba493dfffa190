// Command bench is the repository benchmark. One invocation runs one
// workload of the Paella serving simulator, checks its outputs, and prints
// every metric by name with its unit, then one JSON result line:
//
//	go run . -workload dnn-fleet [-seed 1] [-seconds 10] [-trace 1 [-trace-out spans.json]]
//
// The benchmark measures from outside the simulator: it builds each system
// through public constructors, feeds generated arrivals with one chained
// timer, and reads public Stats and Collector accessors. End-to-end metrics
// come from an untraced pass. With -trace 1 a second, traced pass wraps the
// public policy interfaces and the ingress Submit call to attribute host
// time per layer, and the per-layer metrics are reported instead.
//
// Host time is normalized by a calibration kernel run after every slice of
// the timed phase (see calib.go), which cancels most of a shared host's
// speed drift. Simulated metrics are in virtual time and depend only on
// the workload, -seed and -seconds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"syscall"
	"time"

	"paella/internal/metrics"
	"paella/internal/sim"
)

// gomaxprocs pins the runtime to the reference box's two CPUs, so a run on
// a wider host does not spread the dispatcher's goroutine hand-offs over
// more idle threads than the box it was calibrated on.
const gomaxprocs = 2

// setupReps is how many times an untraced run builds the system; setup_s
// is the median. Builds take 0.2–16 ms, so a single one is mostly noise.
const setupReps = 21

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: dnn-fleet, dnn-batch, llm-colocated or autoscale-diurnal")
	seed := fs.Int64("seed", 1, "seed of the workload generator, its only randomness")
	seconds := fs.Int("seconds", 10, "run length: the request count is this many seconds of the workload's sizing")
	traceMode := fs.Int("trace", 0, "1 adds a traced pass and reports the per-layer metrics")
	traceOut := fs.String("trace-out", "", "with -trace 1, write layer aggregates and sampled spans to this JSON file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	switch {
	case err != nil:
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	case *seconds < 1 || *seconds > 600:
		fmt.Fprintf(stderr, "bench: -seconds %d outside [1, 600]\n", *seconds)
		return 2
	case *traceMode != 0 && *traceMode != 1:
		fmt.Fprintf(stderr, "bench: -trace %d: want 0 or 1\n", *traceMode)
		return 2
	}
	runtime.GOMAXPROCS(gomaxprocs)

	rep, err := measure(w, *seed, w.perSecond**seconds, *traceMode == 1)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *traceOut != "" && rep.tracers != nil {
		if err := writeTrace(*traceOut, rep); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if err := rep.print(stdout, *seconds); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if len(rep.violations) > 0 {
		return 1
	}
	return 0
}

// report is one invocation's outcome.
type report struct {
	w          *spec
	seed       int64
	requests   int
	traced     bool
	values     map[string]float64
	digest     string
	violations []string
	tracers    *tracers
}

// pass is one build-and-drain of a workload's system.
type pass struct {
	sys   *system
	col   *metrics.Collector
	cal   *calibrator
	setup []time.Duration
	// raw is the timed phase's host time with calibration calls excluded.
	raw    time.Duration
	rssMiB float64
}

// injector feeds arrivals through one chained timer: the next arrival is
// scheduled when the current one fires, so the event queue holds the
// simulator's own events rather than every future arrival.
type injector struct {
	env    *sim.Env
	at     []sim.Time
	submit func(int)
	next   int
}

func arrive(ctx any, arg uint64) {
	in := ctx.(*injector)
	i := int(arg)
	in.submit(i)
	in.next = i + 1
	if in.next < len(in.at) {
		in.env.DoCall(in.at[in.next], arrive, in, uint64(in.next))
	}
}

// runPass builds the system reps times (timing each build; the last one is
// kept), then drives it to drain in equal virtual-time slices with a
// calibration call after each.
func runPass(w *spec, in *inputs, tr *tracers, reps int) (*pass, error) {
	p := &pass{cal: newCalibrator()}
	for r := 0; r < reps; r++ {
		if p.sys != nil {
			p.sys.close()
			p.sys = nil
		}
		runtime.GC()
		t0 := time.Now()
		sys, err := w.build(in, tr)
		p.setup = append(p.setup, time.Since(t0))
		if err != nil {
			return nil, fmt.Errorf("%s: build: %w", w.name, err)
		}
		p.sys = sys
	}
	sys, n := p.sys, in.n()
	inj := &injector{env: sys.ctrl, at: in.At, submit: tr.ingress(sys.submit)}
	sys.ctrl.DoCall(in.At[0], arrive, inj, 0)
	width := in.Span / sim.Time(w.slices)
	if width < 1 {
		width = 1
	}
	// An overloaded system drains long after its last arrival; give up
	// (an error, not a result) only far beyond any plausible drain.
	giveUp := 20*in.Span + 60*sim.Second

	runtime.GC()
	start := time.Now()
	for t := width; ; t += width {
		sys.advance(t)
		p.cal.run()
		if inj.next == n && sys.terminated() >= n {
			break
		}
		if t > giveUp {
			sys.close()
			return nil, fmt.Errorf("%s: %d of %d requests still outstanding at %v", w.name, n-sys.terminated(), n, t)
		}
	}
	p.raw = time.Since(start) - p.cal.total
	p.rssMiB = maxRSSMiB()
	p.col = sys.collector()
	return p, nil
}

// measure runs one workload: the untraced pass for the end-to-end and
// Stats-derived metrics, then, when traced, a traced pass on the same
// inputs for the per-layer attribution.
func measure(w *spec, seed int64, n int, traced bool) (*report, error) {
	in, err := w.generate(seed, n)
	if err != nil {
		return nil, fmt.Errorf("%s: generate: %w", w.name, err)
	}
	rep := &report{w: w, seed: seed, requests: in.n(), traced: traced, values: map[string]float64{}}
	v := rep.values

	p, err := runPass(w, in, nil, setupReps)
	if err != nil {
		return nil, err
	}
	f := p.cal.factor()
	v["host_s"] = p.raw.Seconds() * f
	v["setup_s"] = median(p.setup).Seconds() * f
	v["max_rss_mib"] = p.rssMiB
	v["sim.raw_host_s"] = p.raw.Seconds()
	v["bench.calib_s"] = p.cal.total.Seconds()
	simulated(w, in, p.sys, p.col, v)
	v["sim.host_ns_per_event"] = ratio(v["host_s"]*1e9, v["sim.events_per_req"]*float64(in.n()))
	rep.violations = checkOutputs(in, p.sys, p.col)
	if rep.digest, err = simDigest(p.col); err != nil {
		return nil, err
	}
	p.sys.close()
	if !traced {
		return rep, nil
	}

	p = nil // release the untraced system before building the traced one
	tr := newTracers(w.sharded)
	q, err := runPass(w, in, tr, 1)
	if err != nil {
		return nil, err
	}
	v["trace.overhead_frac"] = q.raw.Seconds()*q.cal.factor()/v["host_s"] - 1
	attribute(in, tr, float64(q.raw.Nanoseconds()), v)
	for _, msg := range checkOutputs(in, q.sys, q.col) {
		rep.violations = append(rep.violations, "traced "+msg)
	}
	d, err := simDigest(q.col)
	if err != nil {
		return nil, err
	}
	if d != rep.digest {
		rep.violations = append(rep.violations, fmt.Sprintf("traced sim_digest %s differs from untraced %s", d, rep.digest))
	}
	q.sys.close()
	rep.tracers = tr
	return rep, nil
}

func median(ds []time.Duration) time.Duration {
	s := slices.Clone(ds)
	slices.Sort(s)
	return s[len(s)/2]
}

// maxRSSMiB returns the process's peak resident set size (Linux reports
// ru_maxrss in KiB).
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// print writes the human-readable report — every computed metric with its
// unit, the simulated-output digest and the check verdict — followed by
// the JSON result line: end-to-end metrics for an untraced run, per-layer
// metrics for a traced one.
func (r *report) print(out io.Writer, seconds int) error {
	fmt.Fprintf(out, "# bench workload=%s seed=%d seconds=%d requests=%d trace=%t num_cpu=%d gomaxprocs=%d go=%s\n",
		r.w.name, r.seed, seconds, r.requests, r.traced, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	show := func(defs []metricDef, all bool) {
		for _, d := range defs {
			if val, ok := r.values[d.name]; ok || all {
				fmt.Fprintf(out, "%-28s %-14.6g %s\n", d.name, val, d.unit)
			}
		}
	}
	show(endToEnd, true)
	show(perLayer, r.traced)
	fmt.Fprintf(out, "%-28s %s\n", "sim_digest", r.digest)
	if len(r.violations) == 0 {
		fmt.Fprintln(out, "checks ok: conservation, anatomy, gpu, vram, front")
	}
	for _, v := range r.violations {
		fmt.Fprintln(out, "check FAILED:", v)
	}

	defs := endToEnd
	if r.traced {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(defs))
	for _, d := range defs {
		x := r.values[d.name]
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("metric %s is %v", d.name, x)
		}
		ms[d.name] = value{x, d.unit}
	}
	failed := int(r.values["failed"]+r.values["shed"]) + len(r.violations)
	if failed > r.requests {
		failed = r.requests
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(r.violations) == 0, r.requests, failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

func writeTrace(path string, r *report) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = r.tracers.writeJSON(f, map[string]any{
		"workload": r.w.name, "seed": r.seed, "requests": r.requests, "sim_digest": r.digest,
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
