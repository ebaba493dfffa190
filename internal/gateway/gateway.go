// Package gateway is the software-defined routing layer in front of the
// cluster: the same move the paper makes one level down — §4 pulls kernel
// scheduling out of the hardware queues into a software dispatcher, and
// this package pulls request routing out of ad-hoc balancer heuristics
// into composable, observable policies. The paper's §8 notes that
// cluster-level scheduling composes with Paella through hierarchical
// scheduling; the gateway is that layer made explicit, with three ideas
// stacked on a common policy interface:
//
//   - Predicted-latency routing: each replica advertises its queued work,
//     the request's profiled service cost on that replica (heterogeneous
//     GPUs profile separately), and the weight-load penalty it would pay
//     if the model is cold — the same profiled kernel statistics §5.2's
//     dispatcher schedules with. The policy routes to the replica with the
//     minimum predicted completion time instead of the minimum queue
//     length.
//   - Affinity routing: same-model (and same-session) traffic sticks to
//     replicas whose device memory already holds the weights (or KV
//     state), spilling only when the home replica's predicted latency
//     falls too far behind the fleet.
//   - Admission control: per-tenant token buckets shed excess traffic at
//     the front door with a typed error, bounding the damage a
//     misbehaving tenant can do to everyone else's tail latency.
//
// Policies are listed in a multi-router registry by name, so drivers
// (paella-sim -gateway), experiments, and tests select them uniformly.
// Every policy is deterministic: identical inputs pick identical
// replicas, so a cluster run repeats byte for byte and does not depend on
// the order its shards execute in.
package gateway

import (
	"fmt"
	"sort"

	"paella/internal/sim"
)

// Replica is the policy's read-only view of one live replica. Index is the
// replica's position in the slice handed to Pick (and the value Pick
// returns); ID is the replica's stable physical identity, which survives
// crashes of other replicas — affinity state must key on ID, never Index.
type Replica struct {
	// Index is this view's position in the Pick slice.
	Index int
	// ID is the stable physical replica index.
	ID int
	// InFlight is the number of routed-but-unfinished requests.
	InFlight int
	// Capacity is the replica's thread-slot count (heterogeneous fleets
	// expose their relative width here).
	Capacity int
	// Warm reports whether the request's model weights are resident in the
	// replica's device memory; Loading, whether they are being paged in.
	// Both false on a cold replica (and Warm is true when the replica runs
	// without a VRAM budget — everything is implicitly warm).
	Warm    bool
	Loading bool
	// QueueNs is the predicted unfinished work already routed to the
	// replica, in nanoseconds of that replica's own profiled service time.
	QueueNs sim.Time
	// CostNs is the predicted service time of the request being routed on
	// this replica (profiled per device, so a slow GPU advertises a larger
	// cost for the same model).
	CostNs sim.Time
	// LoadPenaltyNs is the predicted weight-load time the request would
	// pay if routed here while the model is cold (zero when Warm).
	LoadPenaltyNs sim.Time
}

// Load returns the replica's capacity-normalized in-flight load, the
// measure the classic balancers rank by.
func (r Replica) Load() float64 {
	cap := float64(r.Capacity)
	if cap <= 0 {
		cap = 1
	}
	return float64(r.InFlight) / cap
}

// Predicted returns the replica's predicted completion latency for the
// request being routed: queued work, plus this request's own service
// cost, plus the cold-start penalty (halved when the weights are already
// on the wire — joining an in-flight load pays only its remaining half,
// in expectation).
func (r Replica) Predicted() sim.Time {
	p := r.QueueNs + r.CostNs
	switch {
	case r.Warm:
	case r.Loading:
		p += r.LoadPenaltyNs / 2
	default:
		p += r.LoadPenaltyNs
	}
	return p
}

// Request is the routing-relevant slice of one inference request.
type Request struct {
	// Model is the target model name.
	Model string
	// Tenant attributes the request for QoS and admission control (empty =
	// untenanted).
	Tenant string
	// Session groups requests that share server-side state (an LLM
	// conversation whose KV could be reused); zero means stateless.
	Session uint64
}

// Policy routes a request to one replica. Pick returns the chosen
// replica's Index (its position in the slice); the slice is never empty.
// Implementations must be deterministic functions of their inputs and
// accumulated state — the cluster calls Pick from a single timeline, and
// its repeatability tests hold policies to byte-identical decisions. Pick
// must not keep the slice: the cluster refills one buffer for every
// decision.
type Policy interface {
	// Name returns the registry name.
	Name() string
	// Pick selects the target replica for the request.
	Pick(req Request, replicas []Replica) int
}

// registry is the multi-router table: drivers construct fresh instances
// by name (policies carry per-instance state — rotation cursors, session
// homes — so instances are never shared between clusters). A new policy
// adds its constructor here.
var registry = map[string]func() Policy{
	"round-robin":       NewRoundRobin,
	"least-loaded":      NewLeastLoaded,
	"model-affinity":    func() Policy { return NewModelAffinity(0) },
	"residency-aware":   func() Policy { return NewResidencyAware(nil) },
	"predicted-latency": NewPredictedLatency,
	"affinity":          func() Policy { return NewAffinity(0) },
}

// New constructs a fresh instance of the named policy.
func New(name string) (Policy, error) {
	mk, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("gateway: unknown policy %q (have %v)", name, Names())
	}
	return mk(), nil
}

// Names returns the registered policy names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
