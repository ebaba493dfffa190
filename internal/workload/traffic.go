package workload

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"paella/internal/sim"
)

// Shape selects the traffic generator's rate envelope: how the offered load
// evolves over virtual time. The per-request machinery (lognormal gaps,
// weighted model mix, uniform client/tenant attribution) is the same for
// every shape; the shape only modulates the instantaneous target rate.
type Shape string

const (
	// ShapeConstant is a flat rate; Generate is this shape.
	ShapeConstant Shape = "constant"
	// ShapeDiurnal is a day/night sine: the rate swings around
	// BaseRatePerSec with relative amplitude Amplitude over one Period,
	// starting at the trough (virtual midnight).
	ShapeDiurnal Shape = "diurnal"
	// ShapeSpike is a flash crowd: flat at BaseRatePerSec except for a
	// SpikeFactor× burst during [SpikeAt, SpikeAt+SpikeDuration).
	ShapeSpike Shape = "spike"
	// ShapeReplay replays a recorded trace instead of generating arrivals
	// (see ReadTrace); the spec only carries the file path.
	ShapeReplay Shape = "replay"
)

// TrafficSpec parameterizes an open-loop, rate-modulated request trace for
// the fleet-autoscaling experiments: millions of simulated clients whose
// offered load ebbs and flows on the virtual clock. The zero value is not
// valid; Validate reports what is missing. Durations serialize as
// nanoseconds (the `_ns` fields), matching the trace interchange format.
type TrafficSpec struct {
	// Shape selects the rate envelope.
	Shape Shape `json:"shape"`
	// Mix is the weighted model mixture (unused for ShapeReplay).
	Mix Mix `json:"mix"`
	// Sigma is the lognormal inter-arrival shape parameter (burstiness).
	Sigma float64 `json:"sigma"`
	// BaseRatePerSec is the envelope's midline offered load in req/s.
	BaseRatePerSec float64 `json:"base_rate_per_sec"`
	// Amplitude is the diurnal swing as a fraction of the base rate, in
	// [0, 0.95]: the peak offers Base·(1+A), the trough Base·(1−A).
	Amplitude float64 `json:"amplitude,omitempty"`
	// Period is the diurnal cycle length (one virtual day).
	Period sim.Time `json:"period_ns,omitempty"`
	// SpikeFactor is the flash-crowd multiplier (> 1).
	SpikeFactor float64 `json:"spike_factor,omitempty"`
	// SpikeAt is when the flash crowd arrives.
	SpikeAt sim.Time `json:"spike_at_ns,omitempty"`
	// SpikeDuration is how long the flash crowd lasts.
	SpikeDuration sim.Time `json:"spike_duration_ns,omitempty"`
	// Duration generates arrivals until this virtual time (0 = use Jobs).
	Duration sim.Time `json:"duration_ns,omitempty"`
	// Jobs caps the number of requests (0 = use Duration). At least one of
	// Jobs and Duration must be set; when both are, the earlier stops.
	Jobs int `json:"jobs,omitempty"`
	// Clients is the submitting-client population; requests draw an index
	// uniformly, so "millions of users" is just a large value here.
	Clients int `json:"clients"`
	// Seed makes the trace reproducible.
	Seed int64 `json:"seed"`
	// Tenants tags requests with a uniformly drawn tenant exactly like
	// Spec.Tenants; zero draws no extra random numbers, keeping untenanted
	// traces bit-identical (the PR 8 invariant).
	Tenants int `json:"tenants,omitempty"`
	// ReplayPath names the trace file to replay (ShapeReplay only).
	ReplayPath string `json:"replay_path,omitempty"`
}

// Validate reports parameter errors.
func (s TrafficSpec) Validate() error {
	switch s.Shape {
	case ShapeReplay:
		if s.ReplayPath == "" {
			return fmt.Errorf("workload: replay traffic needs replay_path")
		}
		return nil
	case ShapeConstant, ShapeDiurnal, ShapeSpike:
	default:
		return fmt.Errorf("workload: unknown traffic shape %q", s.Shape)
	}
	switch {
	case len(s.Mix.Models) == 0:
		return fmt.Errorf("workload: empty model mix")
	case len(s.Mix.Weights) != len(s.Mix.Models):
		return fmt.Errorf("workload: %d weights for %d models", len(s.Mix.Weights), len(s.Mix.Models))
	case !(s.Sigma >= 0 && s.Sigma <= 8):
		// Negated form also rejects NaN; σ beyond 8 is no longer a
		// latency distribution, it is an integer-overflow generator.
		return fmt.Errorf("workload: sigma %v", s.Sigma)
	case !(s.BaseRatePerSec > 0) || math.IsInf(s.BaseRatePerSec, 0):
		return fmt.Errorf("workload: rate %v", s.BaseRatePerSec)
	case s.Jobs < 0:
		return fmt.Errorf("workload: jobs %d", s.Jobs)
	case s.Duration < 0:
		return fmt.Errorf("workload: negative duration")
	case s.Jobs == 0 && s.Duration == 0:
		return fmt.Errorf("workload: need jobs or duration")
	case s.Clients <= 0:
		return fmt.Errorf("workload: clients %d", s.Clients)
	case s.Tenants < 0:
		return fmt.Errorf("workload: tenants %d", s.Tenants)
	}
	for _, w := range s.Mix.Weights {
		if !(w >= 0) || math.IsInf(w, 0) { // negated form rejects NaN
			return fmt.Errorf("workload: weight %v", w)
		}
	}
	if s.Shape == ShapeDiurnal {
		if !(s.Amplitude >= 0 && s.Amplitude <= 0.95) { // negated form rejects NaN
			return fmt.Errorf("workload: diurnal amplitude %f outside [0, 0.95]", s.Amplitude)
		}
		if s.Period <= 0 {
			return fmt.Errorf("workload: diurnal period %v", s.Period)
		}
	}
	if s.Shape == ShapeSpike {
		if !(s.SpikeFactor > 1 && s.SpikeFactor <= 1e6) { // negated form rejects NaN
			return fmt.Errorf("workload: spike factor %f outside (1, 1e6]", s.SpikeFactor)
		}
		if s.SpikeAt < 0 || s.SpikeDuration <= 0 {
			return fmt.Errorf("workload: spike window [%v, +%v)", s.SpikeAt, s.SpikeDuration)
		}
	}
	return nil
}

// RateAt returns the envelope's instantaneous target rate at virtual time
// t, in req/s. It is exact for constant and spike shapes and the sine
// midline for diurnal; the generator samples it at each arrival.
func (s TrafficSpec) RateAt(t sim.Time) float64 {
	switch s.Shape {
	case ShapeDiurnal:
		phase := 2*math.Pi*float64(t)/float64(s.Period) - math.Pi/2
		return s.BaseRatePerSec * (1 + s.Amplitude*math.Sin(phase))
	case ShapeSpike:
		if t >= s.SpikeAt && t < s.SpikeAt+s.SpikeDuration {
			return s.BaseRatePerSec * s.SpikeFactor
		}
		return s.BaseRatePerSec
	default:
		return s.BaseRatePerSec
	}
}

// GenerateTraffic produces the rate-modulated request trace. Each arrival
// draws its gap from a lognormal whose mean tracks the envelope's current
// rate (RateAt), then its model and client: three draws per request, with
// the optional tenant draw last, so a Tenants == 0 spec consumes no extra
// randomness. ShapeReplay is not generated here: load the recorded trace
// with ReadTrace.
func GenerateTraffic(s TrafficSpec) ([]Request, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s.Shape == ShapeReplay {
		return nil, fmt.Errorf("workload: replay traffic is loaded with ReadTrace, not generated")
	}
	rng := rand.New(rand.NewSource(s.Seed))
	var wsum float64
	for _, w := range s.Mix.Weights {
		wsum += w
	}
	var reqs []Request
	if s.Jobs > 0 {
		reqs = make([]Request, 0, s.Jobs)
	}
	// maxTraceNs bounds the trace horizon (~4.6 virtual days) so a
	// heavy-tailed gap draw can never overflow sim.Time.
	const maxTraceNs = 4e14
	var t float64
	for {
		if s.Jobs > 0 && len(reqs) == s.Jobs {
			break
		}
		rate := s.RateAt(sim.Time(t))
		meanGap := float64(sim.Second) / rate
		mu := math.Log(meanGap) - s.Sigma*s.Sigma/2
		t += math.Exp(mu + s.Sigma*rng.NormFloat64())
		if t > maxTraceNs {
			return nil, fmt.Errorf("workload: trace horizon exceeds %v", sim.Time(maxTraceNs))
		}
		if s.Duration > 0 && sim.Time(t) > s.Duration {
			break
		}
		r := Request{
			At:     sim.Time(t),
			Model:  pickModel(rng, s.Mix, wsum),
			Client: rng.Intn(s.Clients),
		}
		if s.Tenants > 0 {
			r.Tenant = fmt.Sprintf("tenant-%d", rng.Intn(s.Tenants))
		}
		reqs = append(reqs, r)
	}
	if len(reqs) == 0 {
		return nil, fmt.Errorf("workload: traffic spec generated no requests")
	}
	return reqs, nil
}

func pickModel(rng *rand.Rand, m Mix, wsum float64) string {
	x := rng.Float64() * wsum
	for i, w := range m.Weights {
		x -= w
		if x < 0 {
			return m.Models[i]
		}
	}
	return m.Models[len(m.Models)-1]
}

// ParseTrafficSpec decodes and validates a TrafficSpec from JSON — the
// codec behind `paella-sim -traffic <spec.json>` and the fuzz target. It
// rejects unknown fields so a typo'd knob fails loudly instead of running
// the default silently.
func ParseTrafficSpec(data []byte) (TrafficSpec, error) {
	var s TrafficSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return TrafficSpec{}, fmt.Errorf("workload: traffic spec: %w", err)
	}
	// Trailing garbage after the spec object is a malformed file.
	if dec.More() {
		return TrafficSpec{}, fmt.Errorf("workload: traffic spec: trailing data")
	}
	if err := s.Validate(); err != nil {
		return TrafficSpec{}, err
	}
	return s, nil
}
