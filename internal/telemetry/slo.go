package telemetry

import (
	"paella/internal/metrics"
	"paella/internal/sim"
)

// SLOMetric selects which per-request quantity an SLO scores.
type SLOMetric uint8

const (
	// SLOJCT scores end-to-end job completion time against the deadline;
	// failed records always count as bad.
	SLOJCT SLOMetric = iota
	// SLOTTFT scores time-to-first-token. Records that never produced a
	// token are bad when failed and skipped otherwise (non-generative
	// records do not consume TTFT error budget).
	SLOTTFT
)

// String names the scored population as it appears in exports.
func (m SLOMetric) String() string {
	if m == SLOTTFT {
		return "ttft"
	}
	return "jct"
}

// SLOConfig declares one objective: at least Target fraction of requests
// meet Deadline, evaluated as a multi-window burn rate — the page-worthy
// condition is "burning error budget at ≥ burnThreshold× the sustainable
// rate over BOTH the short and the long window", the standard fast-burn
// alerting shape (short window confirms it is still happening, long
// window filters blips).
type SLOConfig struct {
	// Name labels the objective in exports ("goodput@50ms").
	Name string
	// Metric is the scored quantity (default SLOJCT).
	Metric SLOMetric
	// Deadline is the per-request latency bound.
	Deadline sim.Time
	// Target is the objective fraction in (0,1), e.g. 0.99. The error
	// budget 1−Target is clamped to ≥ 1e-9 so burn rates stay finite.
	Target float64
	// Short and Long are the two evaluation windows (virtual time).
	// Short ≤ 0 defaults to 1s; Long ≤ Short defaults to 10·Short.
	Short sim.Time
	Long  sim.Time
}

// burnThreshold is the firing threshold multiplier: an objective fires
// when both windows burn budget at ≥ burnThreshold× the sustainable rate.
const burnThreshold = 2

// Alert is one deterministic SLO state transition.
type Alert struct {
	// At is the virtual time of the transition (the finishing request's
	// delivery stamp).
	At sim.Time
	// SLO is the objective's name.
	SLO string
	// Firing is the new state.
	Firing bool
	// BurnShort and BurnLong are the burn rates at the transition.
	BurnShort float64
	BurnLong  float64
}

// sloMonitor is the ring-buffer evaluator: per-Short-window buckets of
// good/bad counts covering the Long window. Advancing the ring and
// evaluating both windows is O(ring) with zero allocations.
type sloMonitor struct {
	cfg    SLOConfig
	budget float64

	buckets []sloBucket
	head    int64 // bucket index (t/Short) currently at ring position head%len
	started bool
	firing  bool
}

type sloBucket struct {
	good, bad int64
}

// SLO registers an objective on the meter and returns nothing: alerts
// surface via Alerts() and the export. Nil-meter calls are no-ops.
func (m *Meter) SLO(cfg SLOConfig) {
	if m == nil {
		return
	}
	if cfg.Short <= 0 {
		cfg.Short = sim.Second
	}
	if cfg.Long <= cfg.Short {
		cfg.Long = 10 * cfg.Short
	}
	budget := 1 - cfg.Target
	if budget < 1e-9 {
		budget = 1e-9
	}
	n := int((cfg.Long + cfg.Short - 1) / cfg.Short)
	if n < 1 {
		n = 1
	}
	m.slos = append(m.slos, &sloMonitor{
		cfg:     cfg,
		budget:  budget,
		buckets: make([]sloBucket, n),
	})
}

// score returns (good, counted) for one record.
func (s *sloMonitor) score(r *metrics.JobRecord) (bool, bool) {
	switch s.cfg.Metric {
	case SLOTTFT:
		t := r.TTFT()
		if t == 0 {
			// No first token: a failure consumed budget, a non-generative
			// record is out of population.
			return false, r.Failed
		}
		return !r.Failed && t <= s.cfg.Deadline, true
	default:
		return !r.Failed && r.JCT() <= s.cfg.Deadline, true
	}
}

// record advances the ring to t, scores the request, and re-evaluates;
// it returns an Alert (and true) only on a firing/resolved transition, so
// the alert stream is deterministic and edge-triggered.
func (s *sloMonitor) record(t sim.Time, r *metrics.JobRecord) (Alert, bool) {
	good, counted := s.score(r)
	if !counted {
		return Alert{}, false
	}
	idx := int64(t / s.cfg.Short)
	if !s.started {
		s.head = idx
		s.started = true
	}
	if idx-s.head >= int64(len(s.buckets)) {
		// The whole ring aged out; skip the bucket-by-bucket advance.
		for i := range s.buckets {
			s.buckets[i] = sloBucket{}
		}
		s.head = idx
	}
	for s.head < idx {
		s.head++
		s.buckets[s.head%int64(len(s.buckets))] = sloBucket{}
	}
	b := &s.buckets[s.head%int64(len(s.buckets))]
	if good {
		b.good++
	} else {
		b.bad++
	}

	burnShort := s.burn(1)
	burnLong := s.burn(len(s.buckets))
	firing := burnShort >= burnThreshold && burnLong >= burnThreshold
	if firing == s.firing {
		return Alert{}, false
	}
	s.firing = firing
	return Alert{
		At: t, SLO: s.cfg.Name, Firing: firing,
		BurnShort: burnShort, BurnLong: burnLong,
	}, true
}

// burn evaluates the burn rate over the most recent n buckets.
func (s *sloMonitor) burn(n int) float64 {
	var good, bad int64
	ringLen := int64(len(s.buckets))
	for i := 0; i < n; i++ {
		b := s.buckets[((s.head-int64(i))%ringLen+ringLen)%ringLen]
		good += b.good
		bad += b.bad
	}
	total := good + bad
	if total == 0 {
		return 0
	}
	return (float64(bad) / float64(total)) / s.budget
}
