package gateway

import (
	"hash/fnv"
	"strconv"

	"paella/internal/sim"
)

// roundRobin cycles through replicas regardless of load.
type roundRobin struct{ next int }

// NewRoundRobin returns a load-oblivious rotating policy.
func NewRoundRobin() Policy { return &roundRobin{} }

// Name implements Policy.
func (b *roundRobin) Name() string { return "round-robin" }

// Pick implements Policy.
func (b *roundRobin) Pick(_ Request, replicas []Replica) int {
	i := b.next % len(replicas)
	b.next++
	return i
}

// leastLoaded picks the replica with the fewest in-flight requests per
// unit of capacity.
type leastLoaded struct{}

// NewLeastLoaded returns a capacity-normalized least-outstanding policy.
func NewLeastLoaded() Policy { return leastLoaded{} }

// Name implements Policy.
func (leastLoaded) Name() string { return "least-loaded" }

// Pick implements Policy.
func (leastLoaded) Pick(_ Request, replicas []Replica) int {
	best, bestLoad := 0, -1.0
	for _, r := range replicas {
		load := r.Load()
		if bestLoad < 0 || load < bestLoad {
			best, bestLoad = r.Index, load
		}
	}
	return best
}

// modelAffinity hashes each model onto a home replica (maximizing
// warm-model locality, as real clusters do to avoid reloading weights),
// spilling to the least-loaded replica when the home is overloaded beyond
// the spill factor.
type modelAffinity struct {
	spill float64
}

// NewModelAffinity returns a hash-affinity policy that spills when the
// home replica carries more than spillFactor× the fleet-average load.
// spillFactor ≤ 0 selects the default factor 2.
func NewModelAffinity(spillFactor float64) Policy {
	if spillFactor <= 0 {
		spillFactor = 2
	}
	return &modelAffinity{spill: spillFactor}
}

// Name implements Policy.
func (b *modelAffinity) Name() string { return "model-affinity" }

// Pick implements Policy.
func (b *modelAffinity) Pick(req Request, replicas []Replica) int {
	h := fnv.New32a()
	h.Write([]byte(req.Model))
	home := int(h.Sum32()) % len(replicas)
	if home < 0 {
		home += len(replicas)
	}
	// Compare capacity-normalized loads: on a heterogeneous fleet a big
	// GPU legitimately carries more raw in-flight requests than a small
	// one, and raw counts would make the affinity policy spill off (or
	// stick to) the wrong replicas.
	total := 0.0
	for _, r := range replicas {
		total += r.Load()
	}
	avg := total / float64(len(replicas))
	if avg > 0 && replicas[home].Load() > b.spill*avg {
		return leastLoaded{}.Pick(req, replicas)
	}
	return home
}

// residencyAware routes to a replica that already holds the model's
// weights — first preferring resident copies, then in-flight loads (the
// weights are already on the wire; joining them avoids a duplicate
// multi-hundred-MB transfer) — falling back to the wrapped policy when no
// replica has the model. Within each preference tier ties break by
// capacity-normalized load, so a hot model still spreads across its warm
// replicas.
type residencyAware struct {
	fallback Policy
}

// NewResidencyAware returns the residency-aware policy; a nil fallback
// defaults to least-loaded.
func NewResidencyAware(fallback Policy) Policy {
	if fallback == nil {
		fallback = NewLeastLoaded()
	}
	return &residencyAware{fallback: fallback}
}

// Name implements Policy.
func (b *residencyAware) Name() string { return "residency-aware" }

// Pick implements Policy.
func (b *residencyAware) Pick(req Request, replicas []Replica) int {
	if g := pickLeastLoadedWhere(replicas, func(r Replica) bool { return r.Warm }); g >= 0 {
		return g
	}
	if g := pickLeastLoadedWhere(replicas, func(r Replica) bool { return r.Loading }); g >= 0 {
		return g
	}
	return b.fallback.Pick(req, replicas)
}

// pickLeastLoadedWhere returns the least-loaded replica satisfying ok, or
// -1 when none does.
func pickLeastLoadedWhere(replicas []Replica, ok func(Replica) bool) int {
	best, bestLoad := -1, 0.0
	for _, r := range replicas {
		if !ok(r) {
			continue
		}
		load := r.Load()
		if best < 0 || load < bestLoad {
			best, bestLoad = r.Index, load
		}
	}
	return best
}

// predictedLatency routes each request to the replica with the minimum
// predicted completion time: queued profiled work + this request's
// profiled cost on that device + the weight-load penalty it would pay
// there. Unlike least-loaded it distinguishes a queue of heavy jobs from
// a queue of light ones, a fast GPU from a slow one, and a warm replica
// from one that must first page weights over PCIe — the three effects that
// dominate tail latency under skewed many-model traffic.
type predictedLatency struct{}

// NewPredictedLatency returns the minimum-predicted-completion policy.
func NewPredictedLatency() Policy { return predictedLatency{} }

// Name implements Policy.
func (predictedLatency) Name() string { return "predicted-latency" }

// Pick implements Policy.
func (predictedLatency) Pick(_ Request, replicas []Replica) int {
	best, bestPred := 0, sim.Time(-1)
	for _, r := range replicas {
		pred := r.Predicted()
		if bestPred < 0 || pred < bestPred {
			best, bestPred = r.Index, pred
		}
	}
	return best
}

// affinity keeps same-session and same-model traffic on the replicas that
// already hold its state, spilling on predicted latency rather than raw
// load:
//
//  1. A request with a session sticks to the session's home replica while
//     that replica is alive (LLM conversations reuse KV state).
//  2. Otherwise warm replicas win (least queued work among them), then
//     loading ones.
//  3. Otherwise the model's rendezvous-hash home seeds the choice —
//     stable under replica crashes, unlike modulo hashing, so a fleet
//     change only re-homes the models that lived on the lost replica.
//
// The chosen candidate is abandoned for the minimum-predicted replica
// when its own predicted latency exceeds spill× the fleet's best —
// affinity should save weight loads, not queue requests behind a hot
// spot.
type affinity struct {
	spill    float64
	sessions map[uint64]int // session → home replica ID (stable)
}

// NewAffinity returns the session/model affinity policy. spillFactor ≤ 0
// selects the default factor 2.
func NewAffinity(spillFactor float64) Policy {
	if spillFactor <= 0 {
		spillFactor = 2
	}
	return &affinity{spill: spillFactor, sessions: make(map[uint64]int)}
}

// Name implements Policy.
func (b *affinity) Name() string { return "affinity" }

// Pick implements Policy.
func (b *affinity) Pick(req Request, replicas []Replica) int {
	pick := -1
	if req.Session != 0 {
		if home, ok := b.sessions[req.Session]; ok {
			pick = indexOfID(replicas, home)
		}
	}
	if pick < 0 {
		if g := minQueueWhere(replicas, func(r Replica) bool { return r.Warm }); g >= 0 {
			pick = g
		} else if g := minQueueWhere(replicas, func(r Replica) bool { return r.Loading }); g >= 0 {
			pick = g
		} else {
			pick = rendezvousHome(req.Model, replicas)
		}
	}
	// Spill on predicted latency: a sticky home that has fallen spill×
	// behind the fleet's best replica forfeits its affinity win. (The
	// comparison is against the minimum, not the mean — on a small fleet
	// the overloaded home itself drags the mean up and would mask its own
	// hot spot.)
	best := predictedLatency{}.Pick(req, replicas)
	if bp := replicas[best].Predicted(); bp > 0 &&
		replicas[pick].Predicted() > sim.Time(b.spill*float64(bp)) {
		pick = best
	}
	if req.Session != 0 {
		b.sessions[req.Session] = replicas[pick].ID
	}
	return pick
}

// indexOfID returns the position of the replica with the given stable ID,
// or -1 when it is not in the view (crashed).
func indexOfID(replicas []Replica, id int) int {
	for _, r := range replicas {
		if r.ID == id {
			return r.Index
		}
	}
	return -1
}

// minQueueWhere returns the replica with the least queued predicted work
// among those satisfying ok, or -1 when none does.
func minQueueWhere(replicas []Replica, ok func(Replica) bool) int {
	best, bestQ := -1, sim.Time(0)
	for _, r := range replicas {
		if !ok(r) {
			continue
		}
		if best < 0 || r.QueueNs < bestQ {
			best, bestQ = r.Index, r.QueueNs
		}
	}
	return best
}

// rendezvousHome returns the model's highest-random-weight replica: each
// replica scores fnv32(model ":" ID) and the maximum wins, so losing one
// replica re-homes only that replica's models.
func rendezvousHome(model string, replicas []Replica) int {
	best, bestScore := 0, uint32(0)
	for i, r := range replicas {
		h := fnv.New32a()
		h.Write([]byte(model))
		h.Write([]byte{':'})
		h.Write([]byte(strconv.Itoa(r.ID)))
		s := h.Sum32()
		if i == 0 || s > bestScore {
			best, bestScore = r.Index, s
		}
	}
	return best
}
