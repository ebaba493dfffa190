package cluster

import (
	"paella/internal/gateway"
	"paella/internal/metrics"
	"paella/internal/sim"
	"paella/internal/telemetry"
)

// front is the gateway layer Cluster and PD share: per-tenant admission,
// the records of requests it shed, and the gateway telemetry instruments.
// Both fronts make the admit-or-shed decision and count routing decisions
// through it, so the two deployments cannot drift apart.
type front struct {
	env *sim.Env
	// policy is the routing policy's registry name; it names the
	// per-policy instruments.
	policy string
	// admission is the per-tenant token-bucket controller (nil = no
	// admission control). shedCol collects the failed records of shed
	// requests so the merged collector preserves conservation.
	admission *gateway.Admission
	shedCol   *metrics.Collector
	gw        gwMetrics
	// views is the routing-views buffer every pick refills; gateway
	// policies do not keep the slice they are given.
	views []gateway.Replica
}

// newFront builds the front for a policy. A prediction-driven policy
// registers the gateway instruments at once; the classic load heuristics
// stay instrument-free until admission is installed, keeping their
// telemetry exports identical to a gateway-less run.
func newFront(env *sim.Env, policy string) front {
	f := front{env: env, policy: policy, shedCol: metrics.NewCollector()}
	f.gw.mt = telemetry.FromEnv(env)
	if policy == "predicted-latency" || policy == "affinity" {
		f.gw.activate(policy)
	}
	return f
}

// SetAdmission installs (or, with nil, removes) per-tenant token-bucket
// admission. Requests whose tenant is over its rate terminate at once
// with gateway.ErrTenantShed — through Conn.OnFailed on a Cluster,
// OnFinish on a PD — and a failed record in the merged collector.
func (f *front) SetAdmission(a *gateway.Admission) {
	f.admission = a
	if a != nil {
		f.gw.activate(f.policy)
	}
}

// Admission returns the installed admission controller, or nil.
func (f *front) Admission() *gateway.Admission { return f.admission }

// admit charges one request against its tenant's bucket and counts the
// outcome. A nil result admits the request; otherwise the caller
// terminates it through shed.
func (f *front) admit(tenant string) error {
	if f.admission == nil {
		return nil
	}
	now := f.env.Now()
	err := f.admission.Admit(tenant, now)
	fleet := f.gw.admitted
	if err != nil {
		fleet = f.gw.shed
	}
	f.gw.mt.Add(fleet, now, 1)
	if tenant != "" {
		tm := f.gw.tenant(tenant)
		id := tm.admitted
		if err != nil {
			id = tm.shed
		}
		f.gw.mt.Add(id, now, 1)
	}
	return err
}

// shed stamps a refused request's record terminal at the current time —
// every request still ends in exactly one terminal event — files it with
// the shed records, and returns it.
func (f *front) shed(rec metrics.JobRecord, err error) metrics.JobRecord {
	now := f.env.Now()
	rec.Admit, rec.ExecDone, rec.Delivered = now, now, now
	rec.Failed, rec.FailureReason = true, err.Error()
	f.shedCol.Add(rec)
	return rec
}

// routed counts one accepted routing decision and its predicted latency.
func (f *front) routed(r gateway.Replica) {
	if f.gw.on {
		now := f.env.Now()
		f.gw.mt.Add(f.gw.routed, now, 1)
		f.gw.mt.Observe(f.gw.predNs, now, float64(r.Predicted()))
	}
}

// merged returns one collector holding every record of cols followed by
// the shed records.
func (f *front) merged(cols ...*metrics.Collector) *metrics.Collector {
	out := metrics.NewCollector()
	for _, col := range cols {
		out.AddAll(col)
	}
	out.AddAll(f.shedCol)
	return out
}

// gwMetrics is the gateway-layer instrument set on the control timeline's
// meter: one routed counter and predicted-latency histogram per policy, a
// fleet-wide admitted and shed counter, and per-tenant admitted/shed
// counters created as tenants first appear.
type gwMetrics struct {
	on       bool
	mt       *telemetry.Meter
	routed   telemetry.MetricID
	predNs   telemetry.MetricID
	shed     telemetry.MetricID
	admitted telemetry.MetricID
	tenants  map[string]tenantMetrics
}

type tenantMetrics struct {
	admitted telemetry.MetricID
	shed     telemetry.MetricID
}

// activate registers the gateway instruments (idempotent).
func (g *gwMetrics) activate(policy string) {
	if g.on {
		return
	}
	g.on = true
	g.routed = g.mt.Counter("gateway/" + policy + "/routed")
	g.predNs = g.mt.Histogram("gateway/" + policy + "/predicted_ns")
	g.admitted = g.mt.Counter("gateway/admitted")
	g.shed = g.mt.Counter("gateway/shed")
	g.tenants = make(map[string]tenantMetrics)
}

// tenant returns (registering on first sight) the tenant's counters.
func (g *gwMetrics) tenant(name string) tenantMetrics {
	tm, ok := g.tenants[name]
	if !ok {
		tm = tenantMetrics{
			admitted: g.mt.Counter("gateway/tenant/" + name + "/admitted"),
			shed:     g.mt.Counter("gateway/tenant/" + name + "/shed"),
		}
		g.tenants[name] = tm
	}
	return tm
}
