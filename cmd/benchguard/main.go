// Command benchguard is the CI bench-regression gate for the committed
// BENCH_scale.json. It re-runs the scale experiment's quick sweep
// in-process and compares the result against the committed document:
//
//   - Hard failures (exit 1): the committed file is missing, unparsable,
//     or structurally wrong (a cell with fewer than two engines); the
//     committed largest cell does not carry a ≥2× speedup over the seed
//     baseline; the fresh quick scale sweep fails; the probe cell's engine
//     events per completed request exceed maxEventsPerReq (so event
//     coalescing, such as one completion event per GPU wave, cannot
//     silently regress); the hot loop's measured steady-state allocation
//     rate reaches max-allocs-per-event (default 0.5 — the point where a
//     `go test -benchmem` report would round to ≥1 alloc per event).
//   - Advisory (exit 0 with a warning): the fresh probe's completed
//     requests per host second fall below a generous floor relative to
//     the committed largest cell's. Timing on shared CI machines is noisy,
//     so only an order-of-magnitude collapse is treated as a real
//     regression. (The event-count and allocation gates have no such
//     latitude: both counts are deterministic, so they are hard gates even
//     on noisy hardware.)
//
// Usage:
//
//	go run ./cmd/benchguard [-ref BENCH_scale.json] [-min-speedup 2.0] [-floor 0.1] [-max-allocs-per-event 0.5]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"paella/internal/experiments"
)

// The probe cell is one T4 replica serving 400 requests of the scale
// workload on the legacy engine.
const (
	probeReplicas = 1
	probeJobs     = 400
	// maxEventsPerReq is about 5 % above the probe's count with one
	// completion event per GPU wave, one notification post per device
	// event and due time, and process self-wakeups run in place (1,346.4;
	// it was 1,444.3 with one post per emit and every wakeup queued, and
	// 3,349.4 with one completion event per SM per wave).
	maxEventsPerReq = 1414
)

func main() {
	ref := flag.String("ref", "BENCH_scale.json", "committed scale benchmark document")
	minSpeedup := flag.Float64("min-speedup", 2.0, "required speedup over the seed baseline in the committed document")
	floor := flag.Float64("floor", 0.1, "fresh completed requests per host second may not fall below this fraction of the committed rate (hard gate)")
	maxAllocs := flag.Float64("max-allocs-per-event", 0.5, "steady-state heap allocations per engine event must stay below this (hard gate)")
	flag.Parse()

	data, err := os.ReadFile(*ref)
	if err != nil {
		fatal("reading reference: %v", err)
	}
	var committed experiments.ScaleReport
	if err := json.Unmarshal(data, &committed); err != nil {
		fatal("parsing %s: %v", *ref, err)
	}
	if committed.Schema != "paella-scale-bench/v1" {
		fatal("%s: unexpected schema %q", *ref, committed.Schema)
	}
	if len(committed.Cells) == 0 {
		fatal("%s: no cells", *ref)
	}
	for _, c := range committed.Cells {
		if len(c.Engines) < 2 {
			fatal("%s: committed cell replicas=%d has %d engines, want ≥2", *ref, c.Replicas, len(c.Engines))
		}
	}
	last := committed.Cells[len(committed.Cells)-1]
	if committed.SeedBaseline == nil {
		fatal("%s: missing seed_baseline", *ref)
	}
	if committed.SpeedupVsSeed < *minSpeedup {
		fatal("%s: speedup_vs_seed %.2f < required %.2f", *ref, committed.SpeedupVsSeed, *minSpeedup)
	}
	fmt.Printf("committed: largest cell %d replicas × %d jobs, %.2fx over seed %s\n",
		last.Replicas, last.Jobs, committed.SpeedupVsSeed, committed.SeedBaseline.Commit)

	// Fresh quick run: the sweep must still build and drain every cell.
	exp, err := experiments.ByName("scale")
	if err != nil {
		fatal("%v", err)
	}
	fmt.Println("running quick scale sweep...")
	if err := exp.Run(os.Stdout, experiments.Quick); err != nil {
		fatal("quick scale run failed: %v", err)
	}

	// Timing gate: compare the committed legacy engine's request rate to a
	// second, tiny in-process measurement. Requests per host second, not
	// events per second: one event can complete a whole GPU wave, so event
	// rates stop being comparable across engine changes, while the
	// committed file's completed/wall_sec stays meaningful. CI boxes differ
	// wildly from the machine that generated the committed file, so only a
	// collapse below floor × committed is fatal; anything else is advisory.
	refRate := float64(last.Engines[0].Completed) / last.Engines[0].WallSec
	fresh, err := experiments.MeasureScaleCell(probeReplicas, probeJobs)
	if err != nil {
		fatal("measuring fresh cell: %v", err)
	}
	freshRate := float64(fresh.Completed) / fresh.WallSec
	ratio := freshRate / refRate
	fmt.Printf("engine rate: fresh %.0f req/s vs committed %.0f req/s (%.2fx)\n",
		freshRate, refRate, ratio)
	switch {
	case ratio < *floor:
		fatal("completed requests per host second collapsed below %.0f%% of the committed rate", *floor*100)
	case ratio < 0.5:
		fmt.Println("warning: request rate below half the committed rate (advisory; CI hardware varies)")
	}

	// Event-count gate: the probe's events per completed request are a
	// deterministic property of the engine and models, like allocations.
	epr := float64(fresh.Steps) / float64(fresh.Completed)
	fmt.Printf("probe cell: %.1f events per completed request (gate: ≤ %d)\n", epr, maxEventsPerReq)
	if epr > maxEventsPerReq {
		fatal("%.1f events per completed request (> %d): event coalescing regressed", epr, maxEventsPerReq)
	}

	// Allocation gate: the hot loop must stay allocation-free per event in
	// steady state. Unlike wall clocks, this number is machine-independent.
	apew, err := experiments.MeasureAllocsPerEvent(1, 600)
	if err != nil {
		fatal("measuring allocs/event: %v", err)
	}
	fmt.Printf("hot loop: %.4f allocs/event steady-state (gate: < %.2f)\n", apew, *maxAllocs)
	if apew >= *maxAllocs {
		fatal("hot loop allocates %.4f per event (≥ %.2f): the zero-allocation invariant regressed", apew, *maxAllocs)
	}
	fmt.Println("benchguard: OK")
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchguard: "+format+"\n", args...)
	os.Exit(1)
}
