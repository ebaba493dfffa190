package autoscale

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Signals is the policy's read-only view of the fleet at one control tick:
// pool occupancy, queue pressure, smoothed traffic rates, and the SLO burn
// monitor's state. Everything is measured on the virtual clock by the
// Scaler, so identical runs present identical signal sequences.
type Signals struct {
	// Active and Warming count replicas in those pool states (crashed
	// replicas are in no pool; draining and parked ones no policy reads).
	Active, Warming int
	// Target is the previous tick's clamped target — the "hold" value for
	// policies with nothing to say.
	Target int
	// InFlight is the fleet-wide count of routed-but-unfinished requests.
	InFlight int
	// ArrivalRate is the offered load observed over the last tick, req/s.
	ArrivalRate float64
	// CompletionRate is the fleet's served rate over the last tick, req/s.
	CompletionRate float64
	// ReplicaRate is the estimated sustainable per-replica throughput in
	// req/s (the running maximum of smoothed per-replica completion rates,
	// or the configured hint). Zero until the fleet has served traffic.
	ReplicaRate float64
	// SLOFiring reports whether the scaler's burn-rate monitor is firing
	// (always false when no SLO is configured).
	SLOFiring bool
}

// Provisioned returns the capacity the fleet is paying for or about to
// have: active plus warming replicas (draining replicas are on their way
// out and do not count).
func (s Signals) Provisioned() int { return s.Active + s.Warming }

// Policy decides the desired pool size each control tick. Implementations
// may keep internal state (trends, quiet counters) but must be
// deterministic: the same signal sequence yields the same targets. The
// scaler clamps the returned target to [Min, Max] and owns all mechanics —
// warmup, drain, billing.
type Policy interface {
	// Name identifies the policy in reports and the registry.
	Name() string
	// Target returns the desired number of provisioned replicas.
	Target(sig Signals) int
}

// The adaptive policies' constants. hiQueue and loQueue are the
// queue-depth hysteresis thresholds in requests per active replica: above
// hiQueue scale up, below loQueue scale down. holdTicks is how many
// consecutive quiet (non-firing) ticks the slo-burn policy waits before
// releasing one replica. headroom is the predictive policy's
// over-provisioning multiplier on the forecast demand, and lookahead its
// forecast horizon in ticks: it provisions for rate + slope·lookahead.
const (
	hiQueue   = 8.0
	loQueue   = 2.0
	holdTicks = 10
	headroom  = 1.25
	lookahead = 5
)

// clampTarget bounds a computed pool size so threshold extremes can never
// overflow the int conversion (the scaler clamps to [Min, Max] anyway).
func clampTarget(want float64) int {
	if !(want >= 1) { // negated form catches NaN
		return 1
	}
	if want > 1<<20 {
		return 1 << 20
	}
	return int(want)
}

// policies is the registry, the same shape as the gateway's. A new policy
// adds its constructor here.
var policies = map[string]func() Policy{
	"static":      func() Policy { return &staticPolicy{} },
	"queue-depth": func() Policy { return &queueDepthPolicy{} },
	"step":        func() Policy { return &stepPolicy{} },
	"slo-burn":    func() Policy { return &sloBurnPolicy{} },
	"predictive":  func() Policy { return &predictivePolicy{} },
}

// New returns a fresh instance of the named policy.
func New(name string) (Policy, error) {
	mk, ok := policies[name]
	if !ok {
		return nil, fmt.Errorf("autoscale: unknown policy %q (have %s)", name, strings.Join(Names(), ", "))
	}
	return mk(), nil
}

// Names lists the registered policies, sorted.
func Names() []string {
	out := make([]string, 0, len(policies))
	for name := range policies {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// staticPolicy holds the pool at the scaler's initial size — the
// provisioning baseline the adaptive policies are judged against
// (static-min vs static-peak in the frontier experiment).
type staticPolicy struct{}

func (p *staticPolicy) Name() string { return "static" }

// Target holds the current target, which starts at Config.Initial.
func (p *staticPolicy) Target(sig Signals) int { return sig.Target }

// queueDepthPolicy scales on outstanding requests per active replica with
// hysteresis: above hiQueue it jumps the pool to what would bring the
// queue to the hiQueue/loQueue midpoint, below loQueue it shrinks
// likewise. The classic reactive threshold autoscaler.
type queueDepthPolicy struct{}

func (p *queueDepthPolicy) Name() string { return "queue-depth" }

// Target jumps directly to the size that restores the midpoint queue.
func (p *queueDepthPolicy) Target(sig Signals) int {
	prov := sig.Provisioned()
	if prov == 0 {
		return 1
	}
	perRep := float64(sig.InFlight) / float64(prov)
	if perRep <= hiQueue && perRep >= loQueue {
		return sig.Target
	}
	mid := (hiQueue + loQueue) / 2
	return clampTarget(math.Ceil(float64(sig.InFlight) / mid))
}

// stepPolicy is queue-depth's conservative cousin: the same hysteresis
// band, but it only ever moves the pool by one replica per tick.
type stepPolicy struct{}

func (p *stepPolicy) Name() string { return "step" }

// Target nudges the pool by at most ±1.
func (p *stepPolicy) Target(sig Signals) int {
	prov := sig.Provisioned()
	if prov == 0 {
		return 1
	}
	perRep := float64(sig.InFlight) / float64(prov)
	switch {
	case perRep > hiQueue:
		return prov + 1
	case perRep < loQueue:
		return prov - 1
	default:
		return sig.Target
	}
}

// sloBurnPolicy scales on the telemetry burn-rate monitor: while the SLO
// is burning error budget too fast it grows the pool aggressively (half
// again per tick), and only after holdTicks consecutive quiet ticks does
// it release one replica — asymmetric because missing the SLO costs more
// than a briefly oversized fleet.
type sloBurnPolicy struct{ quiet int }

func (p *sloBurnPolicy) Name() string { return "slo-burn" }

// Target grows by max(1, provisioned/2) while firing, shrinks by one after
// a sustained quiet period.
func (p *sloBurnPolicy) Target(sig Signals) int {
	prov := sig.Provisioned()
	if sig.SLOFiring {
		p.quiet = 0
		grow := prov / 2
		if grow < 1 {
			grow = 1
		}
		return prov + grow
	}
	p.quiet++
	if p.quiet >= holdTicks {
		p.quiet = 0
		return prov - 1
	}
	return sig.Target
}

// predictivePolicy forecasts demand with a double-smoothed trend: an EWMA
// of the arrival rate plus its slope projected lookahead ticks out,
// divided by the estimated per-replica capacity with a headroom margin.
// On a diurnal curve the slope term buys capacity before the morning ramp
// arrives instead of after queues have built.
type predictivePolicy struct {
	ewma    float64
	started bool
}

func (p *predictivePolicy) Name() string { return "predictive" }

// Target provisions ceil((ewma + slope·lookahead) · headroom / replicaRate).
func (p *predictivePolicy) Target(sig Signals) int {
	const alpha = 0.3
	prev := p.ewma
	if !p.started {
		p.ewma = sig.ArrivalRate
		p.started = true
	} else {
		p.ewma = alpha*sig.ArrivalRate + (1-alpha)*p.ewma
	}
	if sig.ReplicaRate <= 0 {
		return sig.Target // no capacity estimate yet: hold
	}
	slope := p.ewma - prev
	pred := p.ewma + slope*lookahead
	if pred < 0 {
		pred = 0
	}
	return clampTarget(math.Ceil(pred * headroom / sig.ReplicaRate))
}
