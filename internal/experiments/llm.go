package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"paella/internal/metrics"
	"paella/internal/serving"
	"paella/internal/sim"
	"paella/internal/telemetry"
	"paella/internal/workload"
)

func init() {
	register(Experiment{
		Name:  "llm",
		Title: "Extension (§10): generative serving — continuous batching and prefill/decode disaggregation",
		Run:   runLLM,
	})
}

// llmSLO is the time-to-first-token deadline the goodput columns score
// against: the interactive budget the paper's SLO discussion targets.
const llmSLO = 200 * sim.Millisecond

// runLLM has two parts.
//
// Part A (continuous vs launch-time batching): sweep offered load over the
// generative workload and score TTFT goodput at the 200ms SLO. At low load
// the two match — the batch rarely has more than one member. At saturating
// load static batching makes latecomers wait for the formed batch to drain
// every member's full output, so TTFT (and goodput) collapses while
// continuous batching admits them at the next iteration boundary.
//
// Part B (colocated vs disaggregated prefill/decode): at a moderate load,
// compare two colocated engines against a 1-prefill/1-decode split. The
// split isolates decode from prefill interference (lower TPOT tail) but
// pays the KV-cache handoff over the interconnect on every request (higher
// TTFT).
func runLLM(out io.Writer, d Detail) error {
	jobs, clients := 600, 8
	rates := []float64{100, 400, 1200}
	pdJobs := 400
	if d == Quick {
		jobs, pdJobs = 120, 100
		rates = []float64{100, 1200}
	}
	toks := workload.DefaultTokenSpec(7)
	toks.MaxOutput = 64 // bound per-request decode work so sweeps stay fast

	mkOpts := func() serving.Options {
		opts := serving.DefaultOptions()
		opts.Models = nil // generative systems compile their own spec
		opts.LLM = &serving.LLMOptions{Tokens: toks}
		return opts
	}

	fmt.Fprintf(out, "Extension — generative serving, prompt~LN(%.0f) output~LN(%.0f)≤%d tok, TTFT SLO %v:\n",
		toks.PromptMean, toks.OutputMean, toks.MaxOutput, llmSLO)

	// Part A: continuous vs launch-time batching.
	goodputs := map[string][]float64{}
	ttftP99s := map[string][]sim.Time{}
	var anatomyRows []telemetry.SystemAnatomy
	for _, system := range []string{"Paella-LLM-static", "Paella-LLM"} {
		fmt.Fprintf(out, "\n  %s:\n", system)
		fmt.Fprintf(out, "    %10s %12s %12s %12s %16s\n", "offered", "ttft-p50", "ttft-p99", "tpot-p99", "goodput(req/s)")
		for ri, rate := range rates {
			trace := workload.MustGenerate(workload.Spec{
				Mix: workload.Uniform("llm"), Sigma: 2, RatePerSec: rate,
				Jobs: jobs, Clients: clients, Seed: 7,
			})
			opts := mkOpts()
			opts.MaxSimTime = trace[len(trace)-1].At + 30*sim.Second
			col := serving.MustRunTrace(serving.MustNewSystem(system), trace, opts)
			ttfts, tpots := col.TTFTs(), col.TPOTs()
			goodput := col.TTFTGoodput(llmSLO)
			fmt.Fprintf(out, "    %10.0f %12v %12v %12v %16.1f\n",
				rate, metrics.Percentile(ttfts, 50), metrics.Percentile(ttfts, 99),
				metrics.Percentile(tpots, 99), goodput)
			goodputs[system] = append(goodputs[system], goodput)
			ttftP99s[system] = append(ttftP99s[system], metrics.Percentile(ttfts, 99))
			if ri == len(rates)-1 {
				anatomyRows = append(anatomyRows, telemetry.SystemAnatomy{System: system, Collector: col})
			}
		}
	}

	last := len(rates) - 1
	static, cont := goodputs["Paella-LLM-static"][last], goodputs["Paella-LLM"][last]
	speedup := 0.0
	if static > 0 {
		speedup = cont / static
	}
	fmt.Fprintf(out, "\nSaturating load (%.0f req/s): continuous vs static = %.2fx TTFT-goodput (SLO %v);\n",
		rates[last], speedup, llmSLO)
	fmt.Fprintf(out, "static TTFT p99 %v vs continuous %v — latecomers wait for formed batches to drain.\n",
		ttftP99s["Paella-LLM-static"][last], ttftP99s["Paella-LLM"][last])

	// Latency anatomy at the saturating load: the phase table names where
	// the TTFT win comes from — static batching's gap concentrates in
	// batch-hold (the group-drain wait), not in prefill or decode.
	fmt.Fprintf(out, "\nLatency anatomy at %.0f req/s (phase means / p99s):\n", rates[last])
	if err := telemetry.WriteAnatomyTable(out, anatomyRows); err != nil {
		return err
	}
	sHold := telemetry.MeanAnatomy(anatomyRows[0].Collector)[telemetry.PhaseBatchHold]
	cHold := telemetry.MeanAnatomy(anatomyRows[1].Collector)[telemetry.PhaseBatchHold]
	fmt.Fprintf(out, "  batch-hold carries the gap: %v static vs %v continuous.\n", sHold, cHold)

	// Part B: colocated vs disaggregated prefill/decode at moderate load.
	fmt.Fprintf(out, "\n  Prefill/decode placement (2 engines, %d reqs):\n", pdJobs)
	fmt.Fprintf(out, "    %-22s %12s %12s %12s %14s\n", "deployment", "ttft-p99", "tpot-p50", "tpot-p99", "kv-moved(MiB)")
	type pdResult struct {
		ttftP99, tpotP50, tpotP99, kvMean sim.Time
	}
	rng := rand.New(rand.NewSource(7))
	pdTrace := make([]workload.Request, pdJobs)
	at := sim.Time(0)
	for i := range pdTrace {
		at += sim.Time(rng.Intn(4000)+1000) * sim.Microsecond / 2
		pdTrace[i] = workload.Request{At: at, Model: "llm", Client: i % clients}
	}
	runPD := func(split bool) (pdResult, error) {
		opts := mkOpts()
		opts.LLM.Prefills = 2
		if split {
			opts.LLM.Prefills, opts.LLM.Decodes = 1, 1
		}
		pd, err := serving.NewDeployment(opts)
		if err != nil {
			return pdResult{}, err
		}
		pd.Arrive(pdTrace)
		pd.RunUntil(at + 30*sim.Second)
		col := pd.Collector()
		ttfts, tpots := col.TTFTs(), col.TPOTs()
		res := pdResult{
			ttftP99: metrics.Percentile(ttfts, 99),
			tpotP50: metrics.Percentile(tpots, 50),
			tpotP99: metrics.Percentile(tpots, 99),
			kvMean:  meanOf(col.Records(), func(r metrics.JobRecord) sim.Time { return sim.Time(r.KVTransferNs) }),
		}
		_, kvBytes := pd.Transfers()
		name := "colocated ×2"
		if split {
			name = "disaggregated 1P:1D"
		}
		fmt.Fprintf(out, "    %-22s %12v %12v %12v %14.1f\n",
			name, res.ttftP99, res.tpotP50, res.tpotP99, float64(kvBytes)/(1<<20))
		return res, nil
	}
	coloc, err := runPD(false)
	if err != nil {
		return err
	}
	disagg, err := runPD(true)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "\nDisaggregation trades the per-request KV handoff (mean %v) for a decode pool\n", disagg.kvMean)
	fmt.Fprintf(out, "that prefill bursts cannot stall: TPOT p99 %v vs %v colocated.\n",
		disagg.tpotP99, coloc.tpotP99)
	return nil
}
