package cluster

import (
	"fmt"

	"paella/internal/cudart"
	"paella/internal/gateway"
	"paella/internal/llm"
	"paella/internal/metrics"
	"paella/internal/sim"
	"paella/internal/telemetry"
)

// PDConfig describes a generative-serving deployment: N replicas either
// colocated (every engine prefills and decodes its own requests) or
// disaggregated (dedicated prefill replicas hand prefilled KV state to
// dedicated decode replicas over the interconnect). Disaggregation trades
// a per-request KV transfer for decode replicas whose iteration cadence is
// never perturbed by long prefill grids.
type PDConfig struct {
	LLM llm.Config
	// Prefills and Decodes are the replica counts. Decodes == 0 selects the
	// colocated deployment: Prefills full engines, no transfers.
	Prefills int
	Decodes  int
	// LinkBytesPerNs is the KV-transfer interconnect bandwidth. Zero means
	// the PCIe peer-to-peer path: cudart.DefaultConfig's copy model, whose
	// setup latency every transfer pays either way.
	LinkBytesPerNs float64
	// MakePolicy builds the gateway routing policy: one instance routes
	// submissions (across the prefill replicas, or the whole colocated
	// fleet) and a second, independent instance places KV handoffs across
	// the decode replicas. Replica views carry queued work and request cost
	// in profiled token-time, so predicted-latency and affinity compose
	// with disaggregation. Nil means gateway.NewLeastLoaded.
	MakePolicy func() gateway.Policy
	// Engines, if set, overrides the per-engine llm config (length must be
	// Prefills+Decodes). This models heterogeneous pools — a degraded or
	// throttled replica, a mixed-generation fleet — and each engine's
	// profiled kernel means price its own replica view, so the gateway's
	// predicted-latency policy sees the speed difference that a raw
	// in-flight count hides. Nil uses LLM for every engine.
	Engines []llm.Config
}

func (c *PDConfig) withDefaults() (PDConfig, error) {
	out := *c
	if out.Prefills <= 0 {
		return out, fmt.Errorf("cluster: pd needs at least one replica, got %d", out.Prefills)
	}
	if out.Decodes < 0 {
		return out, fmt.Errorf("cluster: negative decode replica count %d", out.Decodes)
	}
	if out.MakePolicy == nil {
		out.MakePolicy = gateway.NewLeastLoaded
	}
	if out.Engines != nil && len(out.Engines) != out.Prefills+out.Decodes {
		return out, fmt.Errorf("cluster: %d engine configs for %d replicas",
			len(out.Engines), out.Prefills+out.Decodes)
	}
	return out, nil
}

// engineCfg returns engine i's llm config: the per-engine override when
// PDConfig.Engines is set, the shared LLM config otherwise.
func (c *PDConfig) engineCfg(i int) llm.Config {
	if c.Engines != nil {
		return c.Engines[i]
	}
	return c.LLM
}

// PD fronts a set of llm engines with gateway routing and, when
// disaggregated, the prefill→decode KV handoff pipeline. Every engine,
// the front and the KV link share one Env, so engine callbacks call the
// front directly.
type PD struct {
	// front holds admission, shed records, and the gateway instruments.
	front
	cfg PDConfig

	engines []*llm.Engine
	cols    []*metrics.Collector
	// inflight counts requests currently assigned to each engine,
	// maintained at the front where routing decides.
	inflight []int
	link     *cudart.PCIeLink

	// Routing state: the submit- and handoff-side policy instances,
	// per-engine queued token-time, each request's outstanding charge, and
	// each engine's profiled prefill/decode means.
	routePol  gateway.Policy
	decodePol gateway.Policy
	pendingNs []sim.Time
	charge    map[uint64]chargeEntry
	prefillNs []sim.Time
	decodeNs  []sim.Time

	transfers int
	kvBytes   int64

	// mt is the Env's telemetry meter (nil = disabled):
	// handoff count and per-transfer KV latency.
	mt         *telemetry.Meter
	mtHandoffs telemetry.MetricID
	mtKVNs     telemetry.MetricID

	// OnFinish observes every terminal record.
	OnFinish func(metrics.JobRecord)
}

// NewPD builds the deployment on one Env.
func NewPD(env *sim.Env, cfg PDConfig) (*PD, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	pd := &PD{cfg: cfg, charge: make(map[uint64]chargeEntry)}
	rt := cudart.DefaultConfig()
	if cfg.LinkBytesPerNs != 0 {
		rt.PCIeBytesPerNs = cfg.LinkBytesPerNs
	}
	copies := cudart.NewCopyModel(rt)
	pd.link = cudart.NewPCIeLink(env, &copies)
	if mt := telemetry.FromEnv(env); mt != nil {
		pd.mt = mt
		pd.mtHandoffs = mt.Counter("pd/kv_handoffs")
		pd.mtKVNs = mt.Histogram("pd/kv_handoff_ns")
	}
	pd.routePol = cfg.MakePolicy()
	pd.decodePol = cfg.MakePolicy()
	pd.front = newFront(env, pd.routePol.Name())
	n := cfg.Prefills + cfg.Decodes
	for i := 0; i < n; i++ {
		// Each engine compiles its own copy: the Compiled's launch-spec
		// caches are mutated at runtime and must not be shared across
		// engines. Profiling is deterministic, so same-config copies agree.
		comp, err := llm.CompileSpec(cfg.engineCfg(i))
		if err != nil {
			return nil, err
		}
		// Each engine's own profiled means price its replica view — on a
		// heterogeneous pool a slow engine quotes honest (higher) costs.
		pd.prefillNs = append(pd.prefillNs, comp.PrefillMean())
		pd.decodeNs = append(pd.decodeNs, comp.DecodeMean())
		col := metrics.NewCollector()
		eng, err := llm.NewEngine(env, comp, col)
		if err != nil {
			return nil, err
		}
		pd.bindCallbacks(i, eng)
		pd.engines = append(pd.engines, eng)
		pd.cols = append(pd.cols, col)
		pd.inflight = append(pd.inflight, 0)
		pd.pendingNs = append(pd.pendingNs, 0)
	}
	return pd, nil
}

// chargeEntry is one outstanding request's routing account: the engine it
// is charged to and the profiled token-time charged.
type chargeEntry struct {
	engine int
	cost   sim.Time
}

// prefillCost prices one request's prefill pass on engine g by scaling
// g's profiled mean (measured at Spec.ProfilePromptTokens) to the actual
// prompt length — the prefill grid grows with tokens, so a 2000-token
// prompt is not one unit of load but ten.
func (pd *PD) prefillCost(g, promptTokens int) sim.Time {
	basis := pd.cfg.engineCfg(g).Spec.ProfilePromptTokens
	if basis <= 0 || promptTokens <= 0 {
		return pd.prefillNs[g]
	}
	return pd.prefillNs[g] * sim.Time(promptTokens) / sim.Time(basis)
}

// requestCost prices one request on engine g: its prefill pass plus, when
// the engine also decodes (colocated deployments), its decode iterations.
func (pd *PD) requestCost(g int, req llm.Request) sim.Time {
	cost := pd.prefillCost(g, req.Prompt)
	if !pd.split() {
		cost += sim.Time(req.Output) * pd.decodeNs[g]
	}
	return cost
}

// split reports whether the deployment is disaggregated.
func (pd *PD) split() bool { return pd.cfg.Decodes > 0 }

// bindCallbacks wires engine i's terminal and handoff callbacks to the
// front.
func (pd *PD) bindCallbacks(i int, eng *llm.Engine) {
	eng.OnFinish = func(rec metrics.JobRecord) { pd.finished(i, rec) }
	if pd.split() && i < pd.cfg.Prefills {
		eng.HandoffPrefill = func(h llm.Handoff) { pd.handoff(i, h) }
	}
}

// pickIn routes within engines [lo, hi) with the given policy. The replica
// views (queued work in profiled token-time, this request's estimated cost
// on each engine, all replicas warm: generative weights stay resident and
// affinity differentiates by session) fill the front's reused buffer.
func (pd *PD) pickIn(pol gateway.Policy, lo, hi int, req llm.Request, costOf func(g int) sim.Time) int {
	views := pd.views[:0]
	for i := lo; i < hi; i++ {
		views = append(views, gateway.Replica{
			Index: i - lo, ID: i,
			InFlight: pd.inflight[i], Capacity: 1,
			QueueNs: pd.pendingNs[i], CostNs: costOf(i),
			Warm: true,
		})
	}
	pd.views = views
	pick := pol.Pick(gateway.Request{Model: pd.cfg.LLM.Spec.Name, Tenant: req.Tenant, Session: req.Session}, views)
	if pick < 0 || pick >= len(views) {
		panic(fmt.Sprintf("cluster: pd policy %q picked engine %d of %d", pol.Name(), pick, len(views)))
	}
	pd.routed(views[pick])
	return lo + pick
}

// Submit routes one request: through the admission controller, then to a
// prefill replica (disaggregated) or a full engine (colocated) picked by
// the gateway policy. It returns the chosen engine index, or Shed when admission refused the
// request (terminal: OnFinish has observed the failed record).
func (pd *PD) Submit(req llm.Request) int {
	if err := pd.admit(req.Tenant); err != nil {
		rec := pd.shed(metrics.JobRecord{
			ID: req.ID, Model: pd.cfg.LLM.Spec.Name, Client: req.Client,
			Tenant: req.Tenant, Submit: req.Submit, PromptTokens: req.Prompt,
		}, err)
		if pd.OnFinish != nil {
			pd.OnFinish(rec)
		}
		return Shed
	}
	hi := len(pd.engines)
	if pd.split() {
		hi = pd.cfg.Prefills
	}
	g := pd.pickIn(pd.routePol, 0, hi, req, func(i int) sim.Time { return pd.requestCost(i, req) })
	pd.inflight[g]++
	cost := pd.requestCost(g, req)
	pd.pendingNs[g] += cost
	pd.charge[req.ID] = chargeEntry{engine: g, cost: cost}
	pd.engines[g].Admit(req)
	return g
}

// handoff moves a prefilled sequence to a decode replica: pick one with
// the decode-side policy, model the KV transfer on the interconnect, then admit
// the sequence with its transferred KV state.
func (pd *PD) handoff(from int, h llm.Handoff) {
	pd.inflight[from]--
	decodeCost := func(g int) sim.Time { return sim.Time(h.Req.Output) * pd.decodeNs[g] }
	if ch, ok := pd.charge[h.Req.ID]; ok {
		pd.pendingNs[ch.engine] -= ch.cost
	}
	d := pd.pickIn(pd.decodePol, pd.cfg.Prefills, len(pd.engines), h.Req, decodeCost)
	pd.inflight[d]++
	pd.pendingNs[d] += decodeCost(d)
	pd.charge[h.Req.ID] = chargeEntry{engine: d, cost: decodeCost(d)}
	bytes := int(int64(h.Req.Prompt) * pd.cfg.engineCfg(from).Spec.KVBytesPerToken)
	pd.transfers++
	pd.kvBytes += int64(bytes)
	enq := pd.env.Now()
	if pd.mt != nil {
		pd.mt.Add(pd.mtHandoffs, enq, 1)
	}
	pd.link.Transfer(cudart.DeviceToDevice, bytes, func() {
		h := h
		h.Rec.KVTransferNs += pd.env.Now() - enq
		if pd.mt != nil {
			pd.mt.Observe(pd.mtKVNs, pd.env.Now(), float64(pd.env.Now()-enq))
		}
		pd.engines[d].AdmitDecoded(h)
	})
}

func (pd *PD) finished(idx int, rec metrics.JobRecord) {
	pd.inflight[idx]--
	if ch, ok := pd.charge[rec.ID]; ok {
		pd.pendingNs[ch.engine] -= ch.cost
		delete(pd.charge, rec.ID)
	}
	if pd.OnFinish != nil {
		pd.OnFinish(rec)
	}
}

// Size returns the engine count.
func (pd *PD) Size() int { return len(pd.engines) }

// Engine returns the i-th engine (prefill replicas first).
func (pd *PD) Engine(i int) *llm.Engine { return pd.engines[i] }

// InFlight returns the front's view of outstanding requests.
func (pd *PD) InFlight() int {
	total := 0
	for _, n := range pd.inflight {
		total += n
	}
	return total
}

// Transfers returns the KV handoff count and total bytes moved.
func (pd *PD) Transfers() (int, int64) { return pd.transfers, pd.kvBytes }

// Preemptions sums KV preemptions across engines.
func (pd *PD) Preemptions() int {
	total := 0
	for _, e := range pd.engines {
		total += e.Preemptions()
	}
	return total
}

// KVPeakPages returns the highest per-engine KV page watermark.
func (pd *PD) KVPeakPages() int {
	peak := 0
	for _, e := range pd.engines {
		if p := e.Mem().Stats().KVPeakBlocks; p > peak {
			peak = p
		}
	}
	return peak
}

// Collector returns a merged view of all engines' completion records, plus
// the failed records of gateway-shed requests.
func (pd *PD) Collector() *metrics.Collector { return pd.merged(pd.cols...) }
