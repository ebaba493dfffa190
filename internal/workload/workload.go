// Package workload generates open-loop inference request traces matching
// the paper's methodology (§7): request inter-arrival times follow a
// lognormal distribution with σ = 2 (bursty) or σ = 1.5 (less bursty) and a
// mean chosen to hit a target offered load; each request draws a model from
// a weighted mix and is attributed to one of a fixed set of clients.
// Generation is fully deterministic given a seed.
package workload

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"

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

// Generate produces the request trace: GenerateTraffic's constant shape
// with the spec's fields, so the two share one arrival loop and one
// validator.
func Generate(s Spec) ([]Request, error) {
	return GenerateTraffic(TrafficSpec{Shape: ShapeConstant, Mix: s.Mix, Sigma: s.Sigma,
		BaseRatePerSec: s.RatePerSec, Jobs: s.Jobs, Clients: s.Clients, Seed: s.Seed, Tenants: s.Tenants})
}

// MustGenerate is Generate for known-good specs; it panics on error.
func MustGenerate(s Spec) []Request {
	reqs, err := Generate(s)
	if err != nil {
		panic(err)
	}
	return reqs
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

// wireReq is one trace entry on the wire, shared by the JSON-array and
// NDJSON forms.
type wireReq struct {
	AtNs   int64  `json:"at_ns"`
	Model  string `json:"model"`
	Client int    `json:"client"`
	Tenant string `json:"tenant,omitempty"`
}

// WriteJSON saves a trace as a JSON array for replay (cmd/paella-sim -trace).
func WriteJSON(w io.Writer, reqs []Request) error {
	out := make([]wireReq, len(reqs))
	for i, r := range reqs {
		out[i] = wireReq{AtNs: int64(r.At), Model: r.Model, Client: r.Client, Tenant: r.Tenant}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// ReadTrace loads a trace in either wire form: a JSON array as WriteJSON
// saves it, or NDJSON, one request object per line, the interchange
// format for replaying recorded traffic at million-request scale. A
// leading '[' selects the array form. Both forms decode one entry at a
// time, and every entry must have a non-negative arrival no earlier than
// the previous one, a named model and a non-negative client. An empty
// trace is an error.
func ReadTrace(r io.Reader) ([]Request, error) {
	br := bufio.NewReader(r)
	b, err := br.Peek(1)
	for err == nil && strings.IndexByte(" \t\r\n", b[0]) >= 0 {
		br.Discard(1)
		b, err = br.Peek(1)
	}
	array := err == nil && b[0] == '['
	dec := json.NewDecoder(br)
	if array {
		dec.Token() // consumes the '[' Peek saw, so it cannot fail
	}
	var out []Request
	for !array || dec.More() {
		var wr wireReq
		if err := dec.Decode(&wr); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("workload: trace entry %d: %w", len(out), err)
		}
		at := sim.Time(wr.AtNs)
		if at < 0 || len(out) > 0 && at < out[len(out)-1].At {
			return nil, fmt.Errorf("workload: trace arrivals not monotone at entry %d", len(out))
		}
		if wr.Model == "" || wr.Client < 0 {
			return nil, fmt.Errorf("workload: malformed trace entry %d", len(out))
		}
		out = append(out, Request{At: at, Model: wr.Model, Client: wr.Client, Tenant: wr.Tenant})
	}
	if array {
		if _, err := dec.Token(); err != nil {
			return nil, fmt.Errorf("workload: trace: unterminated array")
		}
		if _, err := dec.Token(); err != io.EOF {
			return nil, fmt.Errorf("workload: trace: data after the array")
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("workload: empty trace")
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
