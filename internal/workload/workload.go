// Package workload generates open-loop inference request traces matching
// the paper's methodology (§7): request inter-arrival times follow a
// lognormal distribution with σ = 2 (bursty) or σ = 1.5 (less bursty) and a
// mean chosen to hit a target offered load; each request draws a model from
// a weighted mix and is attributed to one of a fixed set of clients.
// Generation is fully deterministic given a seed.
package workload

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"

	"paella/internal/sim"
)

// Request is one generated inference request.
type Request struct {
	// At is the arrival (client submit) time.
	At sim.Time
	// Model is the zoo model name.
	Model string
	// Client is the submitting client index in [0, Clients).
	Client int
	// Tenant is the workload owner ("tenant-<i>"), empty when the trace was
	// generated without tenancy (Spec.Tenants == 0).
	Tenant string
}

// Mix is a weighted model mixture.
type Mix struct {
	Models  []string
	Weights []float64
}

// Uniform returns an equally-weighted mix of the given models.
func Uniform(models ...string) Mix {
	w := make([]float64, len(models))
	for i := range w {
		w[i] = 1
	}
	return Mix{Models: models, Weights: w}
}

// Weighted returns a mix with explicit weights.
func Weighted(models []string, weights []float64) Mix {
	if len(models) != len(weights) {
		panic("workload: models/weights length mismatch")
	}
	return Mix{Models: models, Weights: weights}
}

// ZipfWeights returns weights following a zipfian popularity law: the
// i-th model (rank i+1) gets weight rank^−s. Model-serving request
// popularity is heavily skewed — a few hot models take most traffic while
// a long tail of cold models each see occasional requests, which is
// exactly the regime that stresses a device-memory residency manager
// (internal/vram): the hot set stays warm, the tail keeps paging. s = 0
// degenerates to uniform; larger s concentrates traffic further.
func ZipfWeights(n int, s float64) []float64 {
	if n <= 0 {
		panic("workload: zipf over no models")
	}
	if s < 0 {
		panic("workload: negative zipf exponent")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Pow(float64(i+1), -s)
	}
	return out
}

// ZipfMix returns the given models weighted by a zipfian popularity law
// with exponent s: models[0] is the most popular.
func ZipfMix(models []string, s float64) Mix {
	return Weighted(models, ZipfWeights(len(models), s))
}

// Spec parameterizes a trace.
type Spec struct {
	Mix Mix
	// Sigma is the lognormal shape parameter (2 or 1.5 in the paper).
	Sigma float64
	// RatePerSec is the target mean offered load in requests/second.
	RatePerSec float64
	// Jobs is the number of requests to generate.
	Jobs int
	// Clients is the number of submitting clients; requests are assigned
	// uniformly at random.
	Clients int
	// Seed makes the trace reproducible.
	Seed int64
	// Tenants tags each request with a tenant drawn uniformly from
	// {"tenant-0" … "tenant-<Tenants-1>"}. Zero disables tenancy (and draws
	// no extra random numbers, leaving untenanted traces bit-identical).
	Tenants int
}

// Validate reports parameter errors.
func (s Spec) Validate() error {
	switch {
	case len(s.Mix.Models) == 0:
		return fmt.Errorf("workload: empty model mix")
	case !finite(s.Sigma):
		return fmt.Errorf("workload: sigma %v", s.Sigma)
	case s.Sigma < 0:
		return fmt.Errorf("workload: negative sigma")
	case !finite(s.RatePerSec) || s.RatePerSec <= 0:
		return fmt.Errorf("workload: rate %f", s.RatePerSec)
	case s.Jobs <= 0:
		return fmt.Errorf("workload: jobs %d", s.Jobs)
	case s.Clients <= 0:
		return fmt.Errorf("workload: clients %d", s.Clients)
	case s.Tenants < 0:
		return fmt.Errorf("workload: tenants %d", s.Tenants)
	}
	for _, w := range s.Mix.Weights {
		if !finite(w) {
			return fmt.Errorf("workload: weight %v", w)
		}
		if w < 0 {
			return fmt.Errorf("workload: negative weight")
		}
	}
	return nil
}

// finite reports whether x is neither NaN nor infinite.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// Generate produces the request trace.
func Generate(s Spec) ([]Request, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(s.Seed))
	// Lognormal with E[X] = exp(µ + σ²/2); pick µ so the mean inter-arrival
	// matches the target rate.
	meanGap := float64(sim.Second) / s.RatePerSec
	mu := math.Log(meanGap) - s.Sigma*s.Sigma/2

	var wsum float64
	for _, w := range s.Mix.Weights {
		wsum += w
	}

	reqs := make([]Request, s.Jobs)
	var t float64
	for i := range reqs {
		gap := math.Exp(mu + s.Sigma*rng.NormFloat64())
		t += gap
		reqs[i] = Request{
			At:     sim.Time(t),
			Model:  pickModel(rng, s.Mix, wsum),
			Client: rng.Intn(s.Clients),
		}
		if s.Tenants > 0 {
			reqs[i].Tenant = fmt.Sprintf("tenant-%d", rng.Intn(s.Tenants))
		}
	}
	return reqs, nil
}

// MustGenerate is Generate for known-good specs; it panics on error.
func MustGenerate(s Spec) []Request {
	reqs, err := Generate(s)
	if err != nil {
		panic(err)
	}
	return reqs
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

// InverseSizeWeights returns weights inversely proportional to the given
// model sizes, the paper's short-vs-long mixing rule for Figure 12 ("the
// ratio of smaller to larger jobs is inversely proportional to their
// size").
func InverseSizeWeights(sizes []sim.Time) []float64 {
	out := make([]float64, len(sizes))
	for i, s := range sizes {
		if s <= 0 {
			panic("workload: nonpositive model size")
		}
		out[i] = 1 / float64(s)
	}
	return out
}

// WriteJSON saves a trace as JSON for replay (cmd/paella-sim -trace).
func WriteJSON(w io.Writer, reqs []Request) error {
	type jsonReq struct {
		AtNs   int64  `json:"at_ns"`
		Model  string `json:"model"`
		Client int    `json:"client"`
		Tenant string `json:"tenant,omitempty"`
	}
	out := make([]jsonReq, len(reqs))
	for i, r := range reqs {
		out[i] = jsonReq{AtNs: int64(r.At), Model: r.Model, Client: r.Client, Tenant: r.Tenant}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// ReadJSON loads a trace previously saved with WriteJSON.
func ReadJSON(r io.Reader) ([]Request, error) {
	type jsonReq struct {
		AtNs   int64  `json:"at_ns"`
		Model  string `json:"model"`
		Client int    `json:"client"`
		Tenant string `json:"tenant,omitempty"`
	}
	var in []jsonReq
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	out := make([]Request, len(in))
	prev := sim.Time(-1)
	for i, jr := range in {
		if jr.AtNs < 0 || sim.Time(jr.AtNs) < prev {
			return nil, fmt.Errorf("workload: trace arrivals not monotone at entry %d", i)
		}
		if jr.Model == "" || jr.Client < 0 {
			return nil, fmt.Errorf("workload: malformed entry %d", i)
		}
		out[i] = Request{At: sim.Time(jr.AtNs), Model: jr.Model, Client: jr.Client, Tenant: jr.Tenant}
		prev = out[i].At
	}
	return out, nil
}

// ObservedRate returns the empirical request rate of a trace in req/s.
func ObservedRate(reqs []Request) float64 {
	if len(reqs) < 2 {
		return 0
	}
	span := (reqs[len(reqs)-1].At - reqs[0].At).Seconds()
	if span <= 0 {
		return 0
	}
	return float64(len(reqs)-1) / span
}
