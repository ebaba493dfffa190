package main

import (
	"encoding/json"
	"io"
	"time"

	"paella/internal/autoscale"
	"paella/internal/gateway"
	"paella/internal/sched"
)

// layer names one wrapped boundary of the traced run.
type layer uint8

const (
	layerIngress   layer = iota // the benchmark's Submit call into the system
	layerGateway                // gateway.Policy.Pick
	layerAutoscale              // autoscale.Policy.Target
	layerSched                  // sched.Policy methods
	numLayers
)

var layerNames = [numLayers]string{"ingress", "gateway", "autoscale", "sched"}

// spanSampleEvery keeps one span in this many; maxSpans bounds each
// tracer's kept spans. Aggregates always count every call.
const (
	spanSampleEvery = 1024
	maxSpans        = 1 << 15
)

// layerAgg is one layer's call count and total and self host time.
type layerAgg struct {
	Count   uint64 `json:"count"`
	TotalNs int64  `json:"total_ns"`
	SelfNs  int64  `json:"self_ns"`
}

// span is one kept (sampled) span. Parent names the enclosing span by ID,
// sampled or not; Req is the request ID where the call carries one.
type span struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	Layer   string `json:"layer"`
	Op      string `json:"op"`
	Req     uint64 `json:"req,omitempty"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
	SelfNs  int64  `json:"self_ns"`
}

type openSpan struct {
	id, parent, req uint64
	layer           layer
	op              string
	start, child    int64
}

// tracer keeps a stack of open spans for one timeline. Calls on one
// timeline never interleave — the dispatcher's process hands control back
// synchronously, and World shards each get their own tracer — so the stack
// needs no lock.
type tracer struct {
	base   time.Time
	prefix uint64
	next   uint64
	stack  []openSpan
	agg    [numLayers]layerAgg
	spans  []span
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) begin(l layer, op string, req uint64) {
	t.next++
	s := openSpan{id: t.prefix | t.next, req: req, layer: l, op: op, start: t.now()}
	if n := len(t.stack); n > 0 {
		s.parent = t.stack[n-1].id
		if req == 0 {
			s.req = t.stack[n-1].req
		}
	}
	t.stack = append(t.stack, s)
}

func (t *tracer) end() {
	n := len(t.stack) - 1
	s := t.stack[n]
	t.stack = t.stack[:n]
	dur := t.now() - s.start
	self := dur - s.child
	a := &t.agg[s.layer]
	a.Count++
	a.TotalNs += dur
	a.SelfNs += self
	if n > 0 {
		t.stack[n-1].child += dur
	}
	if s.id%spanSampleEvery == 0 && len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{
			ID: s.id, Parent: s.parent, Layer: layerNames[s.layer], Op: s.op,
			Req: s.req, StartNs: s.start, DurNs: dur, SelfNs: self,
		})
	}
}

// tracers is the traced run's set of timelines: ctrl for calls made on the
// control Env (ingress, gateway, autoscale), and one per replica for the
// scheduling policy, because World shards run concurrently. A nil *tracers
// means an untraced run: every wrap is the identity.
type tracers struct {
	base  time.Time
	ctrl  *tracer
	shard []*tracer
	// sharded is false for single-Env systems, whose replicas share the
	// control timeline's goroutine hand-off and so its tracer.
	sharded bool
}

func newTracers(sharded bool) *tracers {
	base := time.Now()
	return &tracers{base: base, ctrl: &tracer{base: base}, sharded: sharded}
}

func (ts *tracers) forShard(i int) *tracer {
	if !ts.sharded {
		return ts.ctrl
	}
	for len(ts.shard) <= i {
		ts.shard = append(ts.shard, &tracer{base: ts.base, prefix: uint64(len(ts.shard)+1) << 48})
	}
	return ts.shard[i]
}

func (ts *tracers) all() []*tracer { return append([]*tracer{ts.ctrl}, ts.shard...) }

// totals sums every timeline's per-layer aggregates.
func (ts *tracers) totals() [numLayers]layerAgg {
	var out [numLayers]layerAgg
	for _, t := range ts.all() {
		for l := range out {
			out[l].Count += t.agg[l].Count
			out[l].TotalNs += t.agg[l].TotalNs
			out[l].SelfNs += t.agg[l].SelfNs
		}
	}
	return out
}

// writeJSON emits the per-layer aggregates and the sampled spans.
func (ts *tracers) writeJSON(w io.Writer, header map[string]any) error {
	agg := ts.totals()
	layers := make(map[string]layerAgg, numLayers)
	for l := range agg {
		layers[layerNames[l]] = agg[l]
	}
	var spans []span
	for _, t := range ts.all() {
		spans = append(spans, t.spans...)
	}
	doc := map[string]any{
		"schema":       "paella-bench-trace/v1",
		"sample_every": spanSampleEvery,
		"layers":       layers,
		"spans":        spans,
	}
	for k, v := range header {
		doc[k] = v
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}

// sched wraps replica i's scheduling policy (i matters only on sharded
// systems, where each replica's shard has its own tracer).
func (ts *tracers) sched(i int, p sched.Policy) sched.Policy {
	if ts == nil {
		return p
	}
	return &tracedSched{inner: p, t: ts.forShard(i)}
}

func (ts *tracers) gateway(p gateway.Policy) gateway.Policy {
	if ts == nil {
		return p
	}
	return &tracedGateway{inner: p, t: ts.ctrl}
}

func (ts *tracers) autoscale(p autoscale.Policy) autoscale.Policy {
	if ts == nil {
		return p
	}
	return &tracedAutoscale{inner: p, t: ts.ctrl}
}

// ingress wraps the benchmark's submit call for request id.
func (ts *tracers) ingress(submit func(i int)) func(i int) {
	if ts == nil {
		return submit
	}
	t := ts.ctrl
	return func(i int) {
		t.begin(layerIngress, "Submit", uint64(i+1))
		submit(i)
		t.end()
	}
}

// tracedSched times every sched.Policy call. PickFit's self time includes
// the dispatcher's fit predicate it calls back for each candidate: timing
// those calls too (about 2,000 per request on dnn-batch) would cost more
// than they measure.
type tracedSched struct {
	inner sched.Policy
	t     *tracer
}

func (p *tracedSched) Name() string { return p.inner.Name() }

func (p *tracedSched) Add(j *sched.JobEntry) {
	p.t.begin(layerSched, "Add", j.ID)
	p.inner.Add(j)
	p.t.end()
}

func (p *tracedSched) Remove(j *sched.JobEntry) {
	p.t.begin(layerSched, "Remove", j.ID)
	p.inner.Remove(j)
	p.t.end()
}

func (p *tracedSched) Pick() *sched.JobEntry {
	p.t.begin(layerSched, "Pick", 0)
	j := p.inner.Pick()
	p.t.end()
	return j
}

func (p *tracedSched) PickFit(fits func(*sched.JobEntry) bool, maxScan int) *sched.JobEntry {
	p.t.begin(layerSched, "PickFit", 0)
	j := p.inner.PickFit(fits, maxScan)
	p.t.end()
	return j
}

func (p *tracedSched) Dispatched(j *sched.JobEntry) {
	p.t.begin(layerSched, "Dispatched", j.ID)
	p.inner.Dispatched(j)
	p.t.end()
}

func (p *tracedSched) JobAdmitted(client int) {
	p.t.begin(layerSched, "JobAdmitted", 0)
	p.inner.JobAdmitted(client)
	p.t.end()
}

func (p *tracedSched) JobFinished(client int) {
	p.t.begin(layerSched, "JobFinished", 0)
	p.inner.JobFinished(client)
	p.t.end()
}

func (p *tracedSched) Len() int {
	p.t.begin(layerSched, "Len", 0)
	n := p.inner.Len()
	p.t.end()
	return n
}

type tracedGateway struct {
	inner gateway.Policy
	t     *tracer
}

func (p *tracedGateway) Name() string { return p.inner.Name() }

func (p *tracedGateway) Pick(req gateway.Request, replicas []gateway.Replica) int {
	p.t.begin(layerGateway, "Pick", 0)
	i := p.inner.Pick(req, replicas)
	p.t.end()
	return i
}

type tracedAutoscale struct {
	inner autoscale.Policy
	t     *tracer
}

func (p *tracedAutoscale) Name() string { return p.inner.Name() }

func (p *tracedAutoscale) Target(sig autoscale.Signals) int {
	p.t.begin(layerAutoscale, "Target", 0)
	n := p.inner.Target(sig)
	p.t.end()
	return n
}
