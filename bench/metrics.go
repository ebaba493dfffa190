package main

import (
	"paella/internal/gateway"
	"paella/internal/gpu"
	"paella/internal/metrics"
	"paella/internal/telemetry"
)

// metricDef names one reported metric and its unit. The two lists mirror
// BENCHMARK.json's end_to_end and per_layer entries, in the same order.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the simulator sees: what a simulation
// costs on the host, and what it says about the served system. They come
// from untraced runs only.
var endToEnd = []metricDef{
	{"host_s", "s"},
	{"setup_s", "s"},
	{"max_rss_mib", "MiB"},
	{"slo_attain", "share"},
}

// perLayer are the traced run's metrics: request counts and the simulated
// latency figures (too seed-sensitive for a regression bound, and partly
// defined only on some workloads: zero elsewhere), then one group per
// module, then the boundaries of the traced run itself.
var perLayer = []metricDef{
	{"requests", "count"},
	{"completed", "count"},
	{"failed", "count"},
	{"shed", "count"},
	{"jct_p50_ms", "ms"},
	{"jct_p99_ms", "ms"},
	{"sim_tput_rps", "req/s"},
	{"ttft_p50_ms", "ms"},
	{"ttft_p99_ms", "ms"},
	{"tpot_p99_ms", "ms"},
	{"cost_usd_day", "USD/day"},

	{"sim.events_per_req", "events/req"},
	{"sim.host_ns_per_event", "ns"},
	{"sim.raw_host_s", "s"},
	{"bench.calib_s", "s"},

	{"gpu.kernels_per_req", "kernels/req"},
	{"gpu.blocks_per_req", "blocks/req"},
	{"gpu.util", "share"},
	{"gpu.hol_kernels", "count"},
	{"gpu.hol_gap_ms", "ms"},

	{"core.kernels_sent_per_req", "kernels/req"},
	{"core.notifs_per_req", "notifs/req"},
	{"core.wakeups_per_req", "wakeups/req"},
	{"core.mean_batch", "jobs"},
	{"core.batch_holds", "count"},
	{"core.sched_wait_ms", "ms"},
	{"core.batch_hold_ms", "ms"},

	{"sched.calls_per_req", "calls/req"},
	{"sched.self_ns_per_call", "ns"},
	{"sched.self_share", "share"},

	{"cudart.copies_per_req", "copies/req"},
	{"cudart.pcie_mib", "MiB"},

	{"vram.warm_hit_ratio", "share"},
	{"vram.loads", "count"},
	{"vram.evictions", "count"},
	{"vram.kv_peak_pages", "pages"},
	{"vram.cold_start_ms", "ms"},

	{"llm.iters_per_req", "iters/req"},
	{"llm.preempt_per_req", "preempts/req"},
	{"llm.kv_stall_ms", "ms"},
	{"llm.prefill_ms", "ms"},
	{"llm.decode_ms", "ms"},

	{"gateway.picks_per_req", "picks/req"},
	{"gateway.self_ns_per_pick", "ns"},
	{"gateway.self_share", "share"},

	{"autoscale.ticks", "count"},
	{"autoscale.self_ns_per_tick", "ns"},
	{"autoscale.scale_ups", "count"},
	{"autoscale.parks", "count"},
	{"autoscale.cold_starts", "count"},
	{"autoscale.mean_active", "replicas"},

	{"ingress.self_ns_per_req", "ns"},
	{"engine.self_share", "share"},
	{"trace.overhead_frac", "ratio"},
}

// devices lists every simulated GPU in the system.
func (s *system) devices() []*gpu.Device {
	var out []*gpu.Device
	for _, d := range s.disps {
		out = append(out, d.Device())
	}
	for _, e := range s.engines {
		out = append(out, e.Device())
	}
	return out
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// simulated computes the virtual-time results of a drained run: slo_attain,
// the latency and cost figures, and every per-layer count the public Stats
// accessors expose. All of it is deterministic per seed.
func simulated(w *spec, in *inputs, sys *system, col *metrics.Collector, out map[string]float64) {
	n := float64(in.n())
	ok := col.Succeeded()
	out["requests"] = n
	out["completed"] = float64(ok.Len())
	for _, r := range col.Records() {
		if r.FailureReason == gateway.ErrTenantShed.Error() {
			out["shed"]++
		} else if r.Failed || r.Cancelled {
			out["failed"]++
		}
	}
	jcts := ok.JCTs()
	out["jct_p50_ms"] = metrics.Percentile(jcts, 50).Millis()
	out["jct_p99_ms"] = metrics.Percentile(jcts, 99).Millis()
	met := 0
	for _, r := range ok.Records() {
		lat := r.JCT()
		if w.sloOnTTFT {
			lat = r.TTFT()
			if lat == 0 {
				continue
			}
		}
		if lat <= w.slo {
			met++
		}
	}
	// Failed and shed requests count as misses: the base is every request
	// submitted, not every request completed.
	out["slo_attain"] = float64(met) / n
	out["sim_tput_rps"] = ok.Throughput()
	if ttfts := ok.TTFTs(); len(ttfts) > 0 {
		out["ttft_p50_ms"] = metrics.Percentile(ttfts, 50).Millis()
		out["ttft_p99_ms"] = metrics.Percentile(ttfts, 99).Millis()
		out["tpot_p99_ms"] = metrics.Percentile(ok.TPOTs(), 99).Millis()
	}

	var steps uint64
	for _, e := range sys.envs {
		steps += e.Steps()
	}
	out["sim.events_per_req"] = float64(steps) / n

	var kernels, blocks, hol uint64
	var util float64
	devs := sys.devices()
	for _, d := range devs {
		st := d.Stats()
		kernels += st.KernelsCompleted
		blocks += st.BlocksCompleted
		hol += st.HoLBlockedKernels
		util += d.Utilization()
	}
	out["gpu.kernels_per_req"] = float64(kernels) / n
	out["gpu.blocks_per_req"] = float64(blocks) / n
	out["gpu.util"] = ratio(util, float64(len(devs)))
	out["gpu.hol_kernels"] = float64(hol)
	anat := telemetry.MeanAnatomy(col)
	out["gpu.hol_gap_ms"] = anat[telemetry.PhaseHoLGap].Millis()
	out["core.sched_wait_ms"] = anat[telemetry.PhaseSchedWait].Millis()
	out["core.batch_hold_ms"] = anat[telemetry.PhaseBatchHold].Millis()
	out["llm.kv_stall_ms"] = anat[telemetry.PhaseKVStall].Millis()
	out["llm.prefill_ms"] = anat[telemetry.PhasePrefill].Millis()
	out["llm.decode_ms"] = anat[telemetry.PhaseDecode].Millis()

	var sent, notifs, wakeups, copies, batches, batched, holds uint64
	var pcie int64
	for _, d := range sys.disps {
		st := d.Stats()
		sent += st.KernelsSent
		notifs += st.NotifsHandled
		wakeups += st.LoopWakeups
		copies += st.CopiesSent
		batches += st.Batches
		batched += st.BatchedJobs
		holds += st.BatchHolds
		if l := d.PCIe(); l != nil {
			pcie += l.Stats().Bytes
		}
	}
	out["core.kernels_sent_per_req"] = float64(sent) / n
	out["core.notifs_per_req"] = float64(notifs) / n
	out["core.wakeups_per_req"] = float64(wakeups) / n
	out["core.mean_batch"] = ratio(float64(batched), float64(batches))
	out["core.batch_holds"] = float64(holds)
	out["cudart.copies_per_req"] = float64(copies) / n
	out["cudart.pcie_mib"] = float64(pcie) / (1 << 20)

	var pins, hits, loads, evictions uint64
	for _, d := range sys.disps {
		if m := d.VRAM(); m != nil {
			st := m.Stats()
			pins += st.Pins
			hits += st.WarmHits
			loads += st.Loads
			evictions += st.Evictions
		}
	}
	out["vram.warm_hit_ratio"] = 1
	if pins > 0 {
		out["vram.warm_hit_ratio"] = float64(hits) / float64(pins)
	}
	out["vram.loads"] = float64(loads)
	out["vram.evictions"] = float64(evictions)

	var iters uint64
	preempts, kvPeak := 0, 0
	for _, e := range sys.engines {
		iters += e.Iterations()
		preempts += e.Preemptions()
		kvPeak = max(kvPeak, e.Mem().Stats().KVPeakBlocks)
	}
	out["llm.iters_per_req"] = float64(iters) / n
	out["llm.preempt_per_req"] = float64(preempts) / n
	out["vram.kv_peak_pages"] = float64(kvPeak)

	if sc := sys.scaler; sc != nil {
		st := sc.ScaleStats()
		bill := sc.QuiesceTime(in.Span)
		out["cost_usd_day"] = sc.Cost(bill) * 86400 / in.Span.Seconds()
		out["vram.cold_start_ms"] = ratio(st.ColdStartNs.Millis(), float64(st.ColdStarts))
		out["autoscale.scale_ups"] = float64(st.ScaleUps)
		out["autoscale.parks"] = float64(st.Parks)
		out["autoscale.cold_starts"] = float64(st.ColdStarts)
		out["autoscale.mean_active"] = sc.MeanActive(bill)
	}
}

// attribute computes the traced run's per-layer host-time attribution from
// the wrapped boundaries' aggregates. wallNs is the traced timed phase's
// raw host time, calibration excluded.
func attribute(in *inputs, tr *tracers, wallNs float64, out map[string]float64) {
	n := float64(in.n())
	agg := tr.totals()
	share := func(l layer) float64 { return ratio(float64(agg[l].SelfNs), wallNs) }
	perCall := func(l layer) float64 { return ratio(float64(agg[l].SelfNs), float64(agg[l].Count)) }
	out["sched.calls_per_req"] = float64(agg[layerSched].Count) / n
	out["sched.self_ns_per_call"] = perCall(layerSched)
	out["sched.self_share"] = share(layerSched)
	out["gateway.picks_per_req"] = float64(agg[layerGateway].Count) / n
	out["gateway.self_ns_per_pick"] = perCall(layerGateway)
	out["gateway.self_share"] = share(layerGateway)
	out["autoscale.ticks"] = float64(agg[layerAutoscale].Count)
	out["autoscale.self_ns_per_tick"] = perCall(layerAutoscale)
	out["ingress.self_ns_per_req"] = perCall(layerIngress)
	out["engine.self_share"] = 1 - share(layerSched) - share(layerGateway) - share(layerAutoscale) - share(layerIngress)
}
