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
	// Active, Warming, Draining, and Parked count replicas in each pool
	// state (crashed replicas are in no pool).
	Active, Warming, Draining, Parked int
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

// PolicyConfig is the parameterization of a registered policy
// (`paella-sim -autoscale`, experiment grids, fuzzing). Zero-valued knobs
// take the policy's documented default.
type PolicyConfig struct {
	// Name selects the registered policy.
	Name string
	// Fixed is the static policy's pool size (0 = hold the initial pool).
	Fixed int
	// HiQueue and LoQueue are the queue-depth hysteresis thresholds in
	// requests per active replica: above HiQueue scale up, below LoQueue
	// scale down (defaults 8 and 2).
	HiQueue float64
	LoQueue float64
	// HoldTicks is how many consecutive quiet (non-firing) ticks the
	// slo-burn policy waits before releasing one replica (default 10).
	HoldTicks int
	// Headroom is the predictive policy's over-provisioning multiplier on
	// the forecast demand (default 1.25).
	Headroom float64
	// Lookahead is the predictive policy's forecast horizon in ticks
	// (default 5): it provisions for rate + slope·Lookahead.
	Lookahead int
}

// Validate reports parameter errors (unknown policy, inverted thresholds,
// out-of-range knobs).
func (pc PolicyConfig) Validate() error {
	if _, ok := policies[pc.Name]; !ok {
		return fmt.Errorf("autoscale: unknown policy %q (have %s)", pc.Name, strings.Join(Names(), ", "))
	}
	switch {
	case pc.Fixed < 0 || pc.Fixed > 1<<20:
		return fmt.Errorf("autoscale: fixed pool %d", pc.Fixed)
	case !(pc.HiQueue >= 0 && pc.HiQueue <= 1e6) || !(pc.LoQueue >= 0 && pc.LoQueue <= 1e6):
		// Negated form also rejects NaN.
		return fmt.Errorf("autoscale: queue thresholds %f/%f outside [0, 1e6]", pc.HiQueue, pc.LoQueue)
	case pc.HiQueue > 0 && pc.HiQueue <= pickDefault(pc.LoQueue, 2):
		return fmt.Errorf("autoscale: hi_queue %f must exceed lo_queue %f", pc.HiQueue, pickDefault(pc.LoQueue, 2))
	case pc.LoQueue > 0 && pc.LoQueue >= pickDefault(pc.HiQueue, 8):
		return fmt.Errorf("autoscale: lo_queue %f must undercut hi_queue %f", pc.LoQueue, pickDefault(pc.HiQueue, 8))
	case pc.HoldTicks < 0 || pc.HoldTicks > 1<<20:
		return fmt.Errorf("autoscale: hold_ticks %d", pc.HoldTicks)
	case pc.Headroom < 0 || math.IsNaN(pc.Headroom) || pc.Headroom > 100:
		return fmt.Errorf("autoscale: headroom %f", pc.Headroom)
	case pc.Headroom > 0 && pc.Headroom < 1:
		return fmt.Errorf("autoscale: headroom %f must be at least 1", pc.Headroom)
	case pc.Lookahead < 0 || pc.Lookahead > 1<<20:
		return fmt.Errorf("autoscale: lookahead %d", pc.Lookahead)
	}
	return nil
}

// pickDefault substitutes a default for an unset (zero) knob.
func pickDefault(v, def float64) float64 {
	if v == 0 {
		return def
	}
	return v
}

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

// policies is the registry, the same shape as the gateway's: constructors
// take the (validated) config and apply defaults. A new policy adds its
// constructor here.
var policies = map[string]func(PolicyConfig) Policy{
	"static": func(pc PolicyConfig) Policy { return &staticPolicy{fixed: pc.Fixed} },
	"queue-depth": func(pc PolicyConfig) Policy {
		p := &queueDepthPolicy{hi: pc.HiQueue, lo: pc.LoQueue}
		p.defaults()
		return p
	},
	"step": func(pc PolicyConfig) Policy {
		p := &stepPolicy{queueDepthPolicy{hi: pc.HiQueue, lo: pc.LoQueue}}
		p.defaults()
		return p
	},
	"slo-burn": func(pc PolicyConfig) Policy {
		hold := pc.HoldTicks
		if hold == 0 {
			hold = 10
		}
		return &sloBurnPolicy{hold: hold}
	},
	"predictive": func(pc PolicyConfig) Policy {
		p := &predictivePolicy{headroom: pc.Headroom, lookahead: pc.Lookahead}
		if p.headroom == 0 {
			p.headroom = 1.25
		}
		if p.lookahead == 0 {
			p.lookahead = 5
		}
		return p
	},
}

// New returns a fresh instance of the named policy with default knobs.
func New(name string) (Policy, error) {
	return NewFromConfig(PolicyConfig{Name: name})
}

// NewFromConfig validates the config and builds its policy.
func NewFromConfig(pc PolicyConfig) (Policy, error) {
	if err := pc.Validate(); err != nil {
		return nil, err
	}
	return policies[pc.Name](pc), nil
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

// staticPolicy pins the pool at a fixed size — the provisioning baseline
// the adaptive policies are judged against (static-min vs static-peak in
// the frontier experiment).
type staticPolicy struct{ fixed int }

func (p *staticPolicy) Name() string { return "static" }

// Target returns the fixed size, or holds the current target when none was
// configured.
func (p *staticPolicy) Target(sig Signals) int {
	if p.fixed > 0 {
		return p.fixed
	}
	return sig.Target
}

// queueDepthPolicy scales on outstanding requests per active replica with
// hysteresis: above hi it jumps the pool to what would bring the queue to
// the hi/lo midpoint, below lo it shrinks likewise. The classic
// reactive threshold autoscaler.
type queueDepthPolicy struct{ hi, lo float64 }

func (p *queueDepthPolicy) defaults() {
	if p.hi == 0 {
		p.hi = 8
	}
	if p.lo == 0 {
		p.lo = 2
	}
}

func (p *queueDepthPolicy) Name() string { return "queue-depth" }

// Target jumps directly to the size that restores the midpoint queue.
func (p *queueDepthPolicy) Target(sig Signals) int {
	prov := sig.Provisioned()
	if prov == 0 {
		return 1
	}
	perRep := float64(sig.InFlight) / float64(prov)
	if perRep <= p.hi && perRep >= p.lo {
		return sig.Target
	}
	mid := (p.hi + p.lo) / 2
	return clampTarget(math.Ceil(float64(sig.InFlight) / mid))
}

// stepPolicy is queue-depth's conservative cousin: the same hysteresis
// band, but it only ever moves the pool by one replica per tick.
type stepPolicy struct{ queueDepthPolicy }

func (p *stepPolicy) Name() string { return "step" }

// Target nudges the pool by at most ±1.
func (p *stepPolicy) Target(sig Signals) int {
	prov := sig.Provisioned()
	if prov == 0 {
		return 1
	}
	perRep := float64(sig.InFlight) / float64(prov)
	switch {
	case perRep > p.hi:
		return prov + 1
	case perRep < p.lo:
		return prov - 1
	default:
		return sig.Target
	}
}

// sloBurnPolicy scales on the telemetry burn-rate monitor: while the SLO
// is burning error budget too fast it grows the pool aggressively (half
// again per tick), and only after `hold` consecutive quiet ticks does it
// release one replica — asymmetric because missing the SLO costs more
// than a briefly oversized fleet.
type sloBurnPolicy struct {
	hold  int
	quiet int
}

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
	if p.quiet >= p.hold {
		p.quiet = 0
		return prov - 1
	}
	return sig.Target
}

// predictivePolicy forecasts demand with a double-smoothed trend: an EWMA
// of the arrival rate plus its slope projected `lookahead` ticks out,
// divided by the estimated per-replica capacity with a headroom margin.
// On a diurnal curve the slope term buys capacity before the morning ramp
// arrives instead of after queues have built.
type predictivePolicy struct {
	headroom  float64
	lookahead int

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
	pred := p.ewma + slope*float64(p.lookahead)
	if pred < 0 {
		pred = 0
	}
	return clampTarget(math.Ceil(pred * p.headroom / sig.ReplicaRate))
}
